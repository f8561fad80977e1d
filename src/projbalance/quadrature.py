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

Weights always represent plain Lebesgue measure on C^d = R^{2d}; volume-form
densities (det of a Kahler matrix, powers of 2, ...) are supplied by callers.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartRule",
    "chart_rule",
    "radial_profile_rule",
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


def _gl01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


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


def radial_profile_rule(dim, n_radial):
    """Rule for integrands depending only on the moduli |z_i|^2.

    Returns nodes u (n, dim real >= 0) and weights such that
    sum w f(u) = int_{C^dim} f(|z_1|^2, ..., |z_dim|^2) dA, i.e. the angular
    factors (pi per coordinate after u = rho^2) are folded in analytically.
    Used where tensored angular grids would be waste (e.g. fiber-volume
    constants at higher rank).
    """
    u, uw = _moduli_grid(dim, n_radial)
    return u, uw * np.pi**dim


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


def certify_moments(rule, degree=8, tol=1e-10):
    """Check the rule against the closed-form moment family on its chart.

    For each complex coordinate and p <= degree/2 the rule must reproduce

        int z^p zbar^p (1+|z|^2)^(-p-D0) dA = pi p! (D0-2)! / (p+D0-1)!

    with D0 = 3 (other axes suppressed by a product FS-type weight), and
    annihilate a sample of unbalanced monomials.  Returns the worst error;
    used by tests and by the CLI verify suite.
    """
    if rule.dim == 0:
        return {"passed": True, "max_error": 0.0, "checked": 0}
    import math

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
        for p in range(0, degree // 2 + 1):
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
    return {"passed": bool(worst < tol), "max_error": float(worst), "checked": checked}
