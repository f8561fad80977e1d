"""Kahler structures on affine charts, contraction operators, curvature.

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

Derivatives of potentials are hand-coded for the built-in structures and
centered finite differences with one Richardson step for user potentials.
"""

import math

import numpy as np

__all__ = [
    "KahlerStructure",
    "FubiniStudy",
    "FlatChart",
    "ProductKahler",
    "PotentialKahler",
    "PerturbedKahler",
    "complex_hessian",
    "complex_gradient",
    "lambda_contract",
    "lambda2_wedge",
    "contract",
    "mixed_volume_coefficients",
    "fs_matrix",
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


def complex_hessian(fn, pts, h=5e-3, richardson=True):
    """Mixed complex Hessian d^2 f / dz^a dzbar^b of a scalar or matrix field.

    fn maps (k, m) complex points to (k, *tail) values; the result has shape
    (n, m, m, *tail).  Central differences in the underlying real coordinates;
    one Richardson step (h, h/2) by default.  The mixed-derivative identity
    d_a dbar_b = (1/4)[(dx_a dx_b + dy_a dy_b) + i(dx_a dy_b - dy_a dx_b)]
    holds for complex-valued fields as well.
    """
    pts = np.asarray(pts, dtype=complex)
    m = pts.shape[1]
    if m == 0:
        return np.zeros((pts.shape[0], 0, 0), dtype=complex)
    rh = _real_hessian(fn, pts, h)
    if richardson:
        rh2 = _real_hessian(fn, pts, h / 2.0)
        rh = (4.0 * rh2 - rh) / 3.0
    xx = rh[:, :m, :m]
    yy = rh[:, m:, m:]
    xy = rh[:, :m, m:]
    yx = rh[:, m:, :m]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def complex_gradient(fn, pts, h=5e-3, richardson=True):
    """Holomorphic derivatives d f / dz^a of a scalar or matrix field,
    shape (n, m, *tail); d/dz = (d/dx - i d/dy)/2 by central differences."""
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
    if richardson:
        g = (4.0 * one_step(h / 2.0) - g) / 3.0
    return g


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def fs_matrix(pts, scale=1.0):
    """Fubini-Study form matrix scale * [(1+|z|^2) I - zbar z] / (1+|z|^2)^2."""
    pts = np.asarray(pts, dtype=complex)
    n, m = pts.shape
    s2 = 1.0 + np.sum(np.abs(pts) ** 2, axis=1)
    outer = np.conj(pts)[:, :, None] * pts[:, None, :]
    g = (s2[:, None, None] * np.eye(m)[None] - outer) / s2[:, None, None] ** 2
    return scale * g


class KahlerStructure:
    """A Kahler form on one affine chart C^m, given by a local potential.

    Subclasses either hand-code matrix() and ricci_matrix() or inherit the
    finite-difference route through potential().
    """

    m = None
    label = "kahler"

    def potential(self, pts):
        raise NotImplementedError

    def matrix(self, pts):
        return complex_hessian(self.potential, np.asarray(pts, dtype=complex))

    def _check_positive(self, g):
        if g.shape[-1] == 0:
            return
        ev = np.linalg.eigvalsh(g)
        if not np.all(ev > 0):
            raise ValueError(f"{self.label}: form matrix not positive definite at a node")

    def ricci_matrix(self, pts):
        """Ricci form matrix, -ddbar log det(omega-matrix)."""
        pts = np.asarray(pts, dtype=complex)

        def logdet(q):
            g = self.matrix(q)
            d = np.linalg.det(g).real
            if np.any(d <= 0):
                raise ValueError(f"{self.label}: form matrix not positive definite at a node")
            return np.log(d)

        # wider steps: the inner matrix() may itself be finite-differenced
        return -complex_hessian(logdet, pts, h=3e-2)

    def scalar_curvature(self, pts):
        pts = np.asarray(pts, dtype=complex)
        g = self.matrix(pts)
        self._check_positive(g)
        ric = self.ricci_matrix(pts)
        return np.einsum("nab,nba->n", np.linalg.inv(g), ric).real

    def volume_density(self, pts):
        """Density of omega^m/m! against Lebesgue measure on the chart."""
        g = self.matrix(pts)
        d = np.linalg.det(g).real
        if np.any(d <= 0):
            raise ValueError(f"{self.label}: degenerate volume density at a node")
        return d * 2.0**self.m

    def reduced_volume_density(self, pts):
        """Density of (omega/2 pi)^m / m! against Lebesgue measure."""
        return self.volume_density(pts) / TWO_PI**self.m


class FubiniStudy(KahlerStructure):
    """scale * i ddbar log(1 + |z|^2) on the standard chart of P^m."""

    def __init__(self, m, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.m = m
        self.scale = scale
        self.label = f"fs(m={m}, scale={scale:g})"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return self.scale * np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    def matrix(self, pts):
        return fs_matrix(pts, self.scale)

    def ricci_matrix(self, pts):
        # log det G = -(m+1) log(1+|z|^2) + const, independently of scale
        return (self.m + 1.0) * fs_matrix(pts, 1.0)

    def scalar_curvature(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.full(pts.shape[0], self.m * (self.m + 1.0) / self.scale)


class FlatChart(KahlerStructure):
    """i ddbar |z|^2: the identity form matrix, zero curvature."""

    def __init__(self, m):
        self.m = m
        self.label = f"flat(m={m})"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.sum(np.abs(pts) ** 2, axis=1)

    def matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.broadcast_to(np.eye(self.m, dtype=complex), (pts.shape[0], self.m, self.m)).copy()

    def ricci_matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return np.zeros((pts.shape[0], self.m, self.m), dtype=complex)

    def scalar_curvature(self, pts):
        return np.zeros(np.asarray(pts).shape[0])


class ProductKahler(KahlerStructure):
    """Product structure: block-diagonal over the factors' chart coordinates."""

    def __init__(self, *factors):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = factors
        self.m = sum(f.m for f in factors)
        self.label = " x ".join(f.label for f in factors)
        self._slices = []
        start = 0
        for f in factors:
            self._slices.append(slice(start, start + f.m))
            start += f.m

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return sum(f.potential(pts[:, s]) for f, s in zip(self.factors, self._slices))

    def _block(self, pts, attr):
        pts = np.asarray(pts, dtype=complex)
        out = np.zeros((pts.shape[0], self.m, self.m), dtype=complex)
        for f, s in zip(self.factors, self._slices):
            out[:, s, s] = getattr(f, attr)(pts[:, s])
        return out

    def matrix(self, pts):
        return self._block(pts, "matrix")

    def ricci_matrix(self, pts):
        return self._block(pts, "ricci_matrix")

    def scalar_curvature(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return sum(f.scalar_curvature(pts[:, s]) for f, s in zip(self.factors, self._slices))


class PotentialKahler(KahlerStructure):
    """Structure from a user-supplied potential; all derivatives by centered
    finite differences with Richardson extrapolation."""

    def __init__(self, m, potential_fn, label="potential", h=5e-3):
        self.m = m
        self._fn = potential_fn
        self.label = label
        self.h = h

    def potential(self, pts):
        return np.asarray(self._fn(np.asarray(pts, dtype=complex)), dtype=float)

    def matrix(self, pts):
        return complex_hessian(self._fn, np.asarray(pts, dtype=complex), h=self.h)


class PerturbedKahler(KahlerStructure):
    """Deformation omega - t i ddbar(eta) realized through the potential.

    The form matrix is the base matrix minus t times the complex Hessian of
    eta (exact when the base matrix is exact, FD only on eta), so curvature
    quantities of the deformed structure stay accurate for small t.
    """

    def __init__(self, base, eta_fn, t, h=5e-3):
        self.base = base
        self.m = base.m
        self._eta = eta_fn
        self.t = float(t)
        self.h = h
        self.label = f"{base.label} - {t:g}*eta"

    def potential(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return self.base.potential(pts) - self.t * np.asarray(self._eta(pts), dtype=float)

    def matrix(self, pts):
        pts = np.asarray(pts, dtype=complex)
        return self.base.matrix(pts) - self.t * complex_hessian(self._eta, pts, h=self.h)


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


def lambda2_wedge(g, a, b):
    """Second contraction of a wedge b against omega:

        Lambda^2(a ^ b) = Lambda(a) Lambda(b) - tr(G^{-1} A G^{-1} B),

    normalized so that a ^ b ^ omega^(m-2)/(m-2)! = Lambda^2(a^b) omega^m/m!.
    a may be endomorphism-valued ((n, m, m, r, r)); b must be scalar-valued.
    """
    ginv = np.linalg.inv(g)
    a = np.asarray(a)
    b = np.asarray(b)
    if b.ndim != 3:
        raise ValueError("second form must be scalar-valued")
    lb = np.einsum("nba,nab->n", ginv, b)
    if a.ndim == 3:
        la = np.einsum("nba,nab->n", ginv, a)
        cross = np.einsum("nxa,nay,nyb,nbx->n", ginv, a, ginv, b)
        return la * lb - cross
    if a.ndim == 5:
        la = np.einsum("nba,nabij->nij", ginv, a)
        cross = np.einsum("nxa,nayij,nyb,nbx->nij", ginv, a, ginv, b)
        return la * lb[:, None, None] - cross
    raise ValueError("unsupported form shape")


def contract(g, forms):
    """Iterated contraction Lambda^j(alpha_1 ^ ... ^ alpha_j) per node.

    Normalization: alpha_1 ^ .. ^ alpha_j ^ omega^(m-j)/(m-j)! equals
    contract(...) * omega^m/m!.  Closed forms for j <= 2; equal-form powers
    of any order go through the determinant coefficient expansion.
    """
    forms = [np.asarray(f) for f in forms]
    n, m = g.shape[0], g.shape[1]
    forms = [f if f.ndim >= 3 else np.broadcast_to(f, (n,) + f.shape) for f in forms]
    j = len(forms)
    if j == 0:
        return np.ones(n)
    if j == 1:
        return lambda_contract(g, forms[0])
    if j == 2:
        return lambda2_wedge(g, forms[0], forms[1])
    if all(forms[i] is forms[0] or np.array_equal(forms[i], forms[0]) for i in range(j)):
        # det(G + tA) = sum_j E_j t^j gives alpha^j ^ omega^(m-j) exactly:
        # Lambda^j(alpha^j) = j! E_j / det G
        coeffs = mixed_volume_coefficients(g, forms[0], j)
        detg = np.linalg.det(g).real
        return math.factorial(j) * coeffs[j] / detg
    raise NotImplementedError("distinct-form contraction implemented for j <= 2")


def mixed_volume_coefficients(w, omega, deg):
    """Coefficients E_j of det(W + t Omega) = sum_j E_j t^j, j = 0..deg.

    W, Omega: (n, d, d) Hermitian stacks; the polynomial degree in t must not
    exceed deg (guaranteed when rank(Omega) <= deg).  Returns (deg+1, n).
    """
    tvals = np.arange(deg + 1, dtype=float)
    dets = np.stack([np.linalg.det(w + t * omega).real for t in tvals])  # (deg+1, n)
    vand = np.vander(tvals, deg + 1, increasing=True)                    # (deg+1, deg+1)
    return np.linalg.solve(vand, dets)
