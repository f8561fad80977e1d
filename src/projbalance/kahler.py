"""Kahler structures on affine charts, the contraction, curvature.

Every structure lives on the single affine chart C^m of its projective
space.  The complement of that chart has measure zero for every model here,
so all integration happens there and no other chart is represented.

Conventions, fixed once for the whole package:

- A (1,1)-form alpha is stored by its coefficient matrix A with
  alpha = i sum_ab A_ab dz^a wedge dzbar^b; positivity of alpha is positivity
  of the Hermitian matrix A.
- omega = i ddbar phi has matrix G_ab = d^2 phi / dz^a dzbar^b.
- Curvature-type quantities are reported in the integer-slope normalization:
  the mean curvature of the degree-a line bundle on P^1 contracts to a, and
  scalar curvature of the unit Fubini-Study structure on P^m is m(m+1).
  Equivalently, every such output equals the 2 pi c_1 pairing of the
  conventional (i/2 pi)-normalized curvature against omega/2 pi; this single
  conversion is documented here and used tacitly everywhere else.
- Counting volume forms divide by (2 pi)^(complex degree): the reduced volume
  of (P^1, omega_FS) is 1.  Quadrature weights stay plain Lebesgue; densities
  carry the factors.

Form matrices are hand-coded for the built-in structures; the Ricci form
of a deformed structure (`PerturbedKahler`) and the Hessian of its
deformation are centered finite differences with one Richardson step.
The potential log |u|^2 of a holomorphic map u, the pull-back of the
Fubini-Study form, has exact derivatives of its form to any order from the
Taylor coefficients of u (`log_kernel_jet`).

Every per-node stack of small Hermitian matrices the package factors
goes through `hermitian_det`, `hermitian_norm`, `smallest_eigenvalue` or
`inverse_sqrt`: closed forms at d = 2 (and at d = 1 for the determinant and
the smallest eigenvalue), LAPACK otherwise.
"""

import itertools
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

__all__ = [
    "KahlerStructure",
    "FubiniStudy",
    "PerturbedKahler",
    "complex_hessian",
    "complex_gradient",
    "graded_exponents",
    "jet_tables",
    "log_kernel_jet",
    "lambda_contract",
    "mixed_volume_coefficients",
    "fs_matrix",
    "hermitian_det",
    "hermitian_norm",
    "smallest_eigenvalue",
    "inverse_sqrt",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _real_hessian(fn, pts, h):
    """Real 2m x 2m second-derivative matrix of fn at each point by central
    differences; directions ordered (x_1..x_m, y_1..y_m).  fn may return
    extra trailing dimensions (matrix-valued fields); they are carried along.
    """
    n, m = pts.shape
    d = 2 * m
    dirs = np.zeros((d, m), dtype=complex)
    for a in range(m):
        dirs[a, a] = 1.0
        dirs[m + a, a] = 1j

    stencil = [np.zeros((1, m), dtype=complex)]
    index = {}
    for i in range(d):
        index[(i,)] = (len(stencil), len(stencil) + 1)
        stencil.append(+h * dirs[i][None, :])
        stencil.append(-h * dirs[i][None, :])
    for i in range(d):
        for j in range(i + 1, d):
            index[(i, j)] = tuple(range(len(stencil), len(stencil) + 4))
            stencil.append(+h * (dirs[i] + dirs[j])[None, :])
            stencil.append(+h * (dirs[i] - dirs[j])[None, :])
            stencil.append(-h * (dirs[i] - dirs[j])[None, :])
            stencil.append(-h * (dirs[i] + dirs[j])[None, :])
    shifts = np.concatenate(stencil, axis=0)          # (n_st, m)
    big = (pts[:, None, :] + shifts[None, :, :]).reshape(-1, m)
    vals = np.asarray(fn(big))
    tail = vals.shape[1:]
    vals = vals.reshape((n, shifts.shape[0]) + tail)

    hess = np.empty((n, d, d) + tail, dtype=vals.dtype)
    f0 = vals[:, 0]
    for i in range(d):
        ip, im = index[(i,)]
        hess[:, i, i] = (vals[:, ip] - 2.0 * f0 + vals[:, im]) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            a, b, c, e = index[(i, j)]
            val = (vals[:, a] - vals[:, b] - vals[:, c] + vals[:, e]) / (4.0 * h**2)
            hess[:, i, j] = val
            hess[:, j, i] = val
    return hess


def complex_hessian(fn, pts, h=5e-3):
    """Mixed complex Hessian d^2 f / dz^a dzbar^b of a scalar or matrix field.

    fn maps (k, m) complex points to (k, *tail) values; the result has shape
    (n, m, m, *tail).  Central differences in the underlying real coordinates
    with one Richardson step (h, h/2).  The mixed-derivative identity
    d_a dbar_b = (1/4)[(dx_a dx_b + dy_a dy_b) + i(dx_a dy_b - dy_a dx_b)]
    holds for complex-valued fields as well.
    """
    pts = np.asarray(pts, dtype=complex)
    m = pts.shape[1]
    if m == 0:
        return np.zeros((pts.shape[0], 0, 0), dtype=complex)
    rh = _real_hessian(fn, pts, h)
    rh2 = _real_hessian(fn, pts, h / 2.0)
    rh = (4.0 * rh2 - rh) / 3.0
    xx = rh[:, :m, :m]
    yy = rh[:, m:, m:]
    xy = rh[:, :m, m:]
    yx = rh[:, m:, :m]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def complex_gradient(fn, pts, h=5e-3):
    """Holomorphic derivatives d f / dz^a of a scalar or matrix field,
    shape (n, m, *tail); d/dz = (d/dx - i d/dy)/2 by central differences
    with one Richardson step (h, h/2)."""
    pts = np.asarray(pts, dtype=complex)
    n, m = pts.shape
    if m == 0:
        tail = np.asarray(fn(pts)).shape[1:]
        return np.zeros((n, 0) + tail, dtype=complex)

    def one_step(hh):
        shifts = []
        for a in range(m):
            e = np.zeros((1, m), dtype=complex)
            e[0, a] = 1.0
            shifts += [hh * e, -hh * e, 1j * hh * e, -1j * hh * e]
        shifts = np.concatenate(shifts, axis=0)
        big = (pts[:, None, :] + shifts[None, :, :]).reshape(-1, m)
        vals = np.asarray(fn(big))
        tail = vals.shape[1:]
        vals = vals.reshape((n, 4 * m) + tail)
        out = np.empty((n, m) + tail, dtype=complex)
        for a in range(m):
            fx = (vals[:, 4 * a] - vals[:, 4 * a + 1]) / (2.0 * hh)
            fy = (vals[:, 4 * a + 2] - vals[:, 4 * a + 3]) / (2.0 * hh)
            out[:, a] = 0.5 * (fx - 1j * fy)
        return out

    g = one_step(h)
    return (4.0 * one_step(h / 2.0) - g) / 3.0


# ---------------------------------------------------------------------------
# exact jets of log-kernel potentials
# ---------------------------------------------------------------------------

def graded_exponents(count, top):
    """All exponents e in N^count with |e| <= top, an (M, count) integer
    array graded by degree, lexicographic within a degree (the first
    coordinate most significant, ascending)."""
    blocks = [np.zeros((1, count), dtype=int)]
    for degree in range(1, top + 1):
        # each multiset of `degree` coordinates is one exponent, its
        # counts; the multisets come in the reverse of the order wanted
        picks = np.array(list(itertools.combinations_with_replacement(
            range(count), degree)), dtype=int).reshape(-1, degree)
        blocks.append((picks[::-1, :, None] == np.arange(count)).sum(axis=1))
    return np.concatenate(blocks)


JetTables = namedtuple("JetTables", "mono hol kernel steps g_index g_scale "
                                    "real_map levels")


@lru_cache(maxsize=None)
def jet_tables(d, order):
    """Index tables of `log_kernel_jet` on C^d, built once per (d, order).

    `mono` (M, 2 d) lists the exponents (P, P') of the monomials
    h^P conj(h)^P' of total degree at most order + 2, graded by degree;
    `hol` holds the holomorphic P among them, and `kernel` (2, M) the rows
    of `hol` whose pairing U_P . conj(U_P') is the kernel coefficient of
    each monomial.  `steps` holds, per degree m >= 2, the slice of degree m
    and the pairs (A, B) of the recurrence m l_m = m f_m - sum_j j l_j
    f_(m - j) of l = log f, grouped by A + B, with the weights deg(A) / m
    and the group starts.  `g_index` and `g_scale` (d, d, R) gather the
    coefficient of the row-r monomial of degree <= order in
    g_ab = d_a dbar_b l: (P_a + 1)(P'_b + 1) times l at (P + e_a, P' + e_b).
    `real_map` (R, R) takes those Wirtinger coefficients to the real
    derivatives d_x^alpha d_y^gamma at h = 0, h = x + i y and
    (alpha, gamma) = mono[r] (the directions of `_real_hessian`), and
    `levels` are their orders."""
    top = order + 2
    mono = graded_exponents(2 * d, top)
    degree = mono.sum(axis=1)
    bounds = np.searchsorted(degree, np.arange(top + 2))
    # the code of a monomial in base top + 1 is additive under products;
    # `find` takes codes to rows through the sorted codes
    place = (top + 1) ** np.arange(2 * d)
    by_code = np.argsort(mono @ place)
    codes = (mono @ place)[by_code]

    def find(code):
        return by_code[np.searchsorted(codes, code)]

    is_hol = ~mono[:, d:].any(axis=1)
    kernel = (np.cumsum(is_hol) - 1)[find(np.stack(
        [mono[:, :d], mono[:, d:]]) @ place[:d])]
    steps = []
    for m in range(2, top + 1):
        a, b = np.concatenate([np.stack(np.meshgrid(
            np.arange(bounds[j], bounds[j + 1]),
            np.arange(bounds[m - j], bounds[m - j + 1]),
            indexing="ij")).reshape(2, -1) for j in range(1, m)], axis=1)
        target = find((mono[a] + mono[b]) @ place)
        by = np.argsort(target, kind="stable")
        a, b = a[by], b[by]
        steps.append((slice(bounds[m], bounds[m + 1]), a, b, degree[a] / m,
                      np.searchsorted(target[by], np.arange(bounds[m],
                                                            bounds[m + 1]))))
    rows = mono[:bounds[order + 1]]
    unit = np.eye(d, dtype=int)
    g_index = find((rows + np.concatenate(np.broadcast_arrays(
        unit[:, None, None], unit[None, :, None]), axis=-1)) @ place)
    g_scale = (rows[:, :d].T + 1)[:, None] * (rows[:, d:].T + 1)[None, :]
    # (x + i y)^p (x - i y)^q = sum_s c[p, q, s] x^(p + q - s) y^s, and
    # d_x^alpha d_y^gamma of x^alpha y^gamma at 0 is alpha! gamma!
    wirt = [np.array([math.comb(p, t) * 1j ** t for t in range(p + 1)])
            for p in range(order + 1)]
    expand = np.zeros((order + 1,) * 3, dtype=complex)
    for p, q in itertools.product(range(order + 1), repeat=2):
        if p + q <= order:
            expand[p, q, :p + q + 1] = np.convolve(wirt[p], np.conj(wirt[q]))
    fact = np.array([math.factorial(j) for j in range(order + 1)])
    real_map = np.ones((len(rows), len(rows)), dtype=complex)
    for c in range(d):
        x, y = rows[:, None, c], rows[:, None, d + c]
        p, q = rows[None, :, c], rows[None, :, d + c]
        real_map *= np.where(x + y == p + q,
                             fact[x] * fact[y] * expand[p, q, y], 0.0)
    tables = JetTables(mono, mono[is_hol, :d], kernel, tuple(steps), g_index,
                       g_scale, real_map, degree[:len(rows)])
    # the cache hands the same arrays to every caller
    for arr in [*tables[:3], *tables[4:], *(x for step in steps
                                            for x in step[1:])]:
        arr.flags.writeable = False
    return tables


def log_kernel_jet(coeffs, d, order):
    """Real derivatives up to `order` of the matrix of i ddbar log |u|^2,
    u a holomorphic map from C^d to C^N, exact from its Taylor
    coefficients: coeffs (n, J, N) holds those of h^P in u(w + h) at n
    points w, for the rows P of `jet_tables(d, order).hol`.  Returns
    (R, n, d, d), row r the derivative d_x^alpha d_y^gamma at h = 0 with
    (alpha, gamma) = `jet_tables(d, order).mono[r]`; row 0 is the matrix.

    K = |u|^2 has the coefficient U_P . conj(U_P') at h^P conj(h)^P', and
    f = K / K(w) gives l = log f degree by degree from the recurrence of
    `jet_tables`, f l' = f' graded by degree."""
    tables = jet_tables(d, order)
    # point-last tables: each recurrence step gathers whole rows
    f = (coeffs @ np.conj(np.swapaxes(coeffs, 1, 2)))[:, tables.kernel[0],
                                                     tables.kernel[1]].T
    f = f / f[:1].real
    ell = f.copy()
    for block, a, b, weight, starts in tables.steps:
        ell[block] -= np.add.reduceat(ell[a] * f[b] * weight[:, None], starts,
                                      axis=0)
    derivs = tables.real_map @ (ell[tables.g_index]
                                * tables.g_scale[..., None])
    return derivs.transpose(2, 3, 0, 1)


# ---------------------------------------------------------------------------
# small Hermitian stacks (..., d, d)
# ---------------------------------------------------------------------------

def hermitian_det(stack):
    """Determinants: a c - |b|^2 at d = 2 (diagonal a, c, upper entry b),
    the entry at d = 1, LU above."""
    if stack.shape[-1] == 1:
        return stack[..., 0, 0].real
    if stack.shape[-1] == 2:
        b = stack[..., 0, 1]
        return (stack[..., 0, 0].real * stack[..., 1, 1].real
                - (b.real ** 2 + b.imag ** 2))
    return np.linalg.det(stack).real


def _mean_radius(stack, b):
    """The eigenvalues at d = 2 are (a + c)/2 -+ sqrt(((a - c)/2)^2 + |b|^2)."""
    a, c = stack[..., 0, 0].real, stack[..., 1, 1].real
    return 0.5 * (a + c), np.sqrt((0.5 * (a - c)) ** 2
                                  + (b.real ** 2 + b.imag ** 2))


def hermitian_norm(stack):
    """Spectral norms: |mean| + radius at d = 2, SVD otherwise."""
    if stack.shape[-1] != 2:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    mean, radius = _mean_radius(stack, stack[..., 0, 1])
    return np.abs(mean) + radius


def smallest_eigenvalue(stack):
    """Smallest eigenvalues of the Hermitian parts: the entry at d = 1,
    mean - radius at d = 2 with b averaged against the lower entry,
    `eigvalsh` above."""
    if stack.shape[-1] == 1:
        return stack[..., 0, 0].real
    if stack.shape[-1] != 2:
        return np.linalg.eigvalsh(
            0.5 * (stack + np.swapaxes(stack.conj(), -1, -2)))[..., 0]
    mean, radius = _mean_radius(
        stack, 0.5 * (stack[..., 0, 1] + np.conj(stack[..., 1, 0])))
    return mean - radius


def inverse_sqrt(stack):
    """Inverse square roots A^(-1/2) of a positive stack: at d = 2,
    sqrt(A) = (A + s I) / t with s = sqrt(det A), t = sqrt(tr A + 2 s), so
    A^(-1/2) = (adj A + s I) / (s t); `eigh` above."""
    if stack.shape[-1] != 2:
        w, v = np.linalg.eigh(stack)
        return (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    a, c, b = stack[..., 0, 0].real, stack[..., 1, 1].real, stack[..., 0, 1]
    s = np.sqrt(hermitian_det(stack))
    st = s * np.sqrt(a + c + 2.0 * s)
    adj = np.stack([c + s, -b, -np.conj(b), a + s], axis=-1)  # adj A + s I
    return adj.reshape(stack.shape) / st[..., None, None]


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def fs_matrix(pts):
    """Fubini-Study form matrix [(1+|z|^2) I - zbar z] / (1+|z|^2)^2."""
    pts = np.asarray(pts, dtype=complex)
    n, m = pts.shape
    s2 = 1.0 + np.sum(np.abs(pts) ** 2, axis=1)
    outer = np.conj(pts)[:, :, None] * pts[:, None, :]
    return (s2[:, None, None] * np.eye(m)[None] - outer) / s2[:, None, None] ** 2


class KahlerStructure:
    """A Kahler form on one affine chart C^m, given by a local potential.

    Subclasses give potential() and the form matrix(); ricci_matrix()
    defaults to finite differences of log det matrix(), and the
    curvature and volume densities read both.
    """

    m = None
    label = "kahler"

    def potential(self, pts):
        raise NotImplementedError

    def matrix(self, pts):
        raise NotImplementedError

    def ricci_matrix(self, pts):
        """Ricci form matrix, -ddbar log det(omega-matrix)."""
        pts = np.asarray(pts, dtype=complex)

        def logdet(q):
            d = hermitian_det(self.matrix(q))
            if np.any(d <= 0):
                raise ValueError(f"{self.label}: form matrix not positive definite at a node")
            return np.log(d)

        # wider steps: the inner matrix() may itself be finite-differenced
        return -complex_hessian(logdet, pts, h=3e-2)

    def scalar_curvature(self, pts):
        pts = np.asarray(pts, dtype=complex)
        g = self.matrix(pts)
        if g.shape[-1] and not np.all(smallest_eigenvalue(g) > 0):
            raise ValueError(f"{self.label}: form matrix not positive definite at a node")
        return lambda_contract(g, self.ricci_matrix(pts)).real

    def volume_density(self, pts):
        """Density of omega^m/m! against Lebesgue measure on the chart."""
        d = hermitian_det(self.matrix(pts))
        if np.any(d <= 0):
            raise ValueError(f"{self.label}: degenerate volume density at a node")
        return d * 2.0**self.m

    def reduced_volume_density(self, pts):
        """Density of (omega/2 pi)^m / m! against Lebesgue measure."""
        return self.volume_density(pts) / TWO_PI**self.m


class FubiniStudy(KahlerStructure):
    """i ddbar log(1 + |z|^2) on the standard chart of P^m."""

    def __init__(self, m):
        self.m = m
        self.label = f"fs(m={m})"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    def matrix(self, pts):
        return fs_matrix(pts)

    def ricci_matrix(self, pts):
        # log det G = -(m+1) log(1+|z|^2)
        return (self.m + 1.0) * fs_matrix(pts)

    def scalar_curvature(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.full(pts.shape[0], self.m * (self.m + 1.0))


class PerturbedKahler(KahlerStructure):
    """Deformation omega - t i ddbar(eta) realized through the potential.

    The form matrix is the base matrix minus t times the complex Hessian of
    eta (exact when the base matrix is exact, FD only on eta), so curvature
    quantities of the deformed structure stay accurate for small t.
    """

    def __init__(self, base, eta_fn, t):
        self.base = base
        self.m = base.m
        self._eta = eta_fn
        self.t = float(t)
        self.label = f"{base.label} - {t:g}*eta"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return self.base.potential(pts) - self.t * np.asarray(self._eta(pts), dtype=float)

    def matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return self.base.matrix(pts) - self.t * complex_hessian(self._eta, pts)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def lambda_contract(g, a):
    """Trace of a (1,1)-form against omega: tr(G^{-1} A) per node.

    a of shape (n, m, m) gives scalars (n,); endomorphism-valued forms of
    shape (n, m, m, r, r) give (n, r, r).
    """
    ginv = np.linalg.inv(g)
    a = np.asarray(a)
    if a.ndim == 3:
        return np.einsum("nba,nab->n", ginv, a)
    if a.ndim == 5:
        return np.einsum("nba,nabij->nij", ginv, a)
    raise ValueError("unsupported form shape")


def mixed_volume_coefficients(w, omega, deg):
    """Coefficients E_j of det(W + t Omega) = sum_j E_j t^j, j = 0..deg.

    W, Omega: (n, d, d) Hermitian stacks; the polynomial degree in t must not
    exceed deg (guaranteed when rank(Omega) <= deg).  Returns (deg+1, n).
    """
    tvals = np.arange(deg + 1, dtype=float)
    dets = np.stack([hermitian_det(w + t * omega) for t in tvals])  # (deg+1, n)
    vand = np.vander(tvals, deg + 1, increasing=True)                # (deg+1, deg+1)
    return np.linalg.solve(vand, dets)
