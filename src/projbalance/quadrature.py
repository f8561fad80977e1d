"""Quadrature on affine charts C^d against the Lebesgue measure.

All model integrands here are rational with Fubini-Study-type decay.  A
single complex coordinate is handled in polar form with the substitution
t = rho^2 / (1 + rho^2):

    int_C f dA = 1/2 int_0^1 int_0^{2 pi} f(rho(t) e^{i theta}) dtheta dt / (1-t)^2

For d >= 2 the coordinates decay jointly, not per-axis, so tensoring the 1-d
map would leave a direction-dependent corner at all-radii-infinity and kill
the convergence rate.  Instead the moduli u_i = rho_i^2 are written u = s x
with s > 0 and x on the unit simplex (Duffy map), and only s is sent through
t = s/(1+s).  The uniform angular grids annihilate every monomial with
unmatched powers exactly, and whatever survives is polynomial in the s x_i,
so Gauss-Legendre converges exponentially for the rational weights here.
Its nodes and weights (`_gl01`) are numpy's `leggauss`, ported bit for bit
so that a run does not import `numpy.polynomial`.

Weights always represent plain Lebesgue measure on C^d = R^{2d}; volume-form
densities (det of a Kahler matrix, powers of 2, ...) are supplied by callers.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ChartRule",
    "chart_rule",
    "product_rule",
    "integrate",
    "certify_moments",
]


@dataclass(frozen=True)
class ChartRule:
    """Nodes and Lebesgue weights on an affine chart of C^d."""

    points: np.ndarray   # (n, d) complex128
    weights: np.ndarray  # (n,) float64, all positive

    @property
    def dim(self):
        return self.points.shape[1]

    def __post_init__(self):
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")


def _legval(x, c):
    """Legendre series sum_j c[j] P_j(x) by Clenshaw's recurrence, in the
    operation order of numpy's `legval`."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gl01(n):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per n and
    shared by every rule, so both arrays are read-only.

    numpy's `leggauss` algorithm, bit for bit: the roots of P_n are the
    eigenvalues of its symmetric companion matrix, improved by one Newton
    step; the weights are 1 / (P_n' P_(n-1)) at the roots, each factor
    scaled by its largest modulus, then nodes and weights are symmetrized
    about 0 and the weights normalized to the interval's length."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * n + [1.0]
    # P_n' = sum of (2j + 1) P_j over the j < n of the other parity
    df = _legval(x, [(n - j) % 2 * (2.0 * j + 1.0) for j in range(n)])
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_n[1:])
    w = 1.0 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _moduli_grid(dim, n_radial):
    """Joint radial part: points u (rows, dim) = s * x and weights such that
    sum_k w_k g(u_k) ~ int_{orthant} g(u) du for g with joint rational decay."""
    t, wt = _gl01(n_radial)
    s = t / (1.0 - t)
    s_w = wt * s ** (dim - 1) / (1.0 - t) ** 2

    if dim == 1:
        return s[:, None], s_w

    # Duffy map of the (dim-1)-simplex
    vs, vws = zip(*[_gl01(n_radial) for _ in range(dim - 1)])
    grids = np.meshgrid(*vs, indexing="ij")
    wgrids = np.meshgrid(*vws, indexing="ij")
    x = np.empty((dim,) + grids[0].shape)
    rem = np.ones_like(grids[0])
    jac = np.ones_like(grids[0])
    for j in range(dim - 1):
        x[j] = rem * grids[j]
        jac = jac * rem
        rem = rem * (1.0 - grids[j])
    x[dim - 1] = rem
    simplex_w = jac * np.prod(wgrids, axis=0)

    x = x.reshape(dim, -1).T          # (n_simplex, dim)
    simplex_w = simplex_w.ravel()
    u = s[:, None, None] * x[None, :, :]
    w = s_w[:, None] * simplex_w[None, :]
    return u.reshape(-1, dim), w.ravel()


def chart_rule(dim, n_radial, n_angular=None):
    """Rule on C^dim integrating f against Lebesgue measure.

    dim = 0 returns the convention rule: one empty point with weight 1, so
    fiber-free integrals reduce to plain evaluation.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    if dim == 0:
        return ChartRule(np.zeros((1, 0), dtype=complex), np.ones(1))
    if n_angular is None:
        n_angular = 2 * n_radial + 1

    u, uw = _moduli_grid(dim, n_radial)
    rho = np.sqrt(u)

    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    phase = np.exp(1j * theta)
    ang_w = 2.0 * np.pi / n_angular

    # tensor the angular grid over the dim coordinates
    n_u = rho.shape[0]
    pts = rho[:, None, :].astype(complex)
    for axis in range(dim):
        n_prev = pts.shape[1]
        pts = np.repeat(pts, n_angular, axis=1)
        pts[:, :, axis] = pts[:, :, axis] * np.tile(phase, n_prev)[None, :]
    w = (uw * (ang_w**dim) / (2.0**dim))[:, None] * np.ones(n_angular**dim)[None, :]
    return ChartRule(pts.reshape(n_u * n_angular**dim, dim), w.ravel())


def product_rule(a, b):
    """Tensor product of two chart rules."""
    na, nb = a.points.shape[0], b.points.shape[0]
    pts = np.empty((na * nb, a.dim + b.dim), dtype=complex)
    pts[:, : a.dim] = np.repeat(a.points, nb, axis=0)
    pts[:, a.dim:] = np.tile(b.points, (na, 1))
    w = (a.weights[:, None] * b.weights[None, :]).ravel()
    return ChartRule(pts, w)


def integrate(rule, values):
    """Sum weights * values; values may be scalar-per-node or stacked arrays
    with the node axis first (matrix fields integrate entrywise)."""
    values = np.asarray(values)
    finite = np.isfinite(values).reshape(values.shape[0], -1).all(axis=1)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise ValueError(f"non-finite integrand at node {idx}: point {rule.points[idx]}")
    out = np.tensordot(rule.weights, values, axes=(0, 0))
    if values.ndim == 1:
        return complex(out) if np.iscomplexobj(values) else float(out)
    return out


_MOMENT_DEGREE = 8
_MOMENT_TOL = 1e-10


def certify_moments(rule):
    """Check the rule against the closed-form moment family on its chart.

    For each coordinate and p <= _MOMENT_DEGREE/2 the rule must reproduce

        int z^p zbar^p (1+|z|^2)^(-p-D0) dA = pi p! (D0-2)! / (p+D0-1)!

    with D0 = 3 (other axes suppressed by a product FS-type weight), and
    annihilate a sample of unbalanced monomials.  Returns the worst error,
    which passes below _MOMENT_TOL, and that tolerance.
    """
    if rule.dim == 0:
        return {"passed": True, "max_error": 0.0, "checked": 0,
                "tolerance": _MOMENT_TOL}
    worst = 0.0
    checked = 0
    d0 = 3
    for axis in range(rule.dim):
        z = rule.points[:, axis]
        if rule.dim > 1:
            others = np.abs(np.delete(rule.points, axis, axis=1)) ** 2
            sup = np.prod((1.0 + others) ** -3.0, axis=1)
            sup_val = (math.pi / 2) ** (rule.dim - 1)
        else:
            sup = 1.0
            sup_val = 1.0
        for p in range(0, _MOMENT_DEGREE // 2 + 1):
            f = np.abs(z) ** (2 * p) * (1.0 + np.abs(z) ** 2) ** float(-(p + d0)) * sup
            exact = (
                math.pi * math.factorial(p) * math.factorial(d0 - 2) / math.factorial(p + d0 - 1)
            ) * sup_val
            err = abs(integrate(rule, f) - exact)
            worst = max(worst, err)
            checked += 1
        odd = z * (1.0 + np.abs(z) ** 2) ** -4.0 * sup
        worst = max(worst, abs(integrate(rule, odd)))
        checked += 1
    return {"passed": bool(worst < _MOMENT_TOL), "max_error": float(worst),
            "checked": checked, "tolerance": _MOMENT_TOL}
