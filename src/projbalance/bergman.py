"""Fiber integrals and density fields for projectivized bundle models.

The chain implemented here, bottom to top:

* the induced form on the projectivized dual (`hat_form_matrix`) and the
  volume coefficients of its k-scaled combination with the base form;
* fiber averages of the dual pairing against those coefficient weights
  (`push_forward_table`, k-independent and built once per sweep, and the
  single average `fiber_push_forward`); the table gives the level metric
  on the section space at any k (`level_metric_values`);
* weighted Grams (`l2_gram`), the level endomorphism field
  (`bergman_endomorphism`), and two independent density routes
  (`rho_direct` integrates on the total space, `rho_via_trace` contracts
  the endomorphism against a rank-one projector);
* candidate first-correction fields (`a1_formula`, `a1_alternative`), the
  sweep fitter (`expansion_fit`, on the levels and the endomorphism
  values each level produced), and the joint linearization of the first
  correction in a metric/form direction (`a11_apply`) together with the
  fourth-order scalar operator it contains (`lichnerowicz_apply`,
  `scalar_curvature_variation`).

Conventions follow the rest of the package: (1,1)-forms are stored as
coefficient matrices against i dz^a wedge dzbar^b, counting measures are
reduced by (2 pi)^m, and a degree-a line-bundle weight has curvature
contraction a.  The fiber trace is the trace on bundle indices; volume
means are taken against the reduced base measure.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError
from .kahler import (
    PerturbedKahler,
    complex_hessian,
    mixed_volume_coefficients,
)
from .metrics import (
    MatrixField,
    _base_runs,
    _dual_pairing,
    curvature_matrix,
    hat_weight,
    hermitian_einstein_residual,
    l2_pairing,
    make_gram,
    mean_curvature,
)
from .quadrature import ChartRule, integrate, radial_profile_rule
from .sections import base_rule, build_section_basis, fiber_rule

logger = logging.getLogger(__name__)

__all__ = [
    "adapted_total_rule",
    "c_r_constant",
    "hat_form_matrix",
    "lifted_base_form",
    "volume_coefficients",
    "level_volume_density",
    "FiberAverage",
    "fiber_push_forward",
    "PushForwardTable",
    "push_forward_table",
    "level_metric_values",
    "l2_gram",
    "BergmanEndomorphism",
    "bergman_endomorphism",
    "DirectDensity",
    "rho_direct",
    "dual_point_projector",
    "rho_via_trace",
    "a1_formula",
    "a1_alternative",
    "ExpansionFit",
    "expansion_fit",
    "lichnerowicz_apply",
    "scalar_curvature_variation",
    "curvature_variation",
    "a11_apply",
]


# ---------------------------------------------------------------------------
# fiber volume constant
# ---------------------------------------------------------------------------

def _volume_constant_exact(r):
    """(2 pi)^(r-1) / r!, the closed value of the fiber normalizer."""
    return (2.0 * math.pi) ** (r - 1) / math.factorial(r)


@functools.lru_cache(maxsize=None)
def c_r_constant(r):
    """Total mass of the unnormalized fiber density: the integral over
    C^(r-1) of (1 + |xi|^2)^(-(r+1)) against the coordinate measure
    prod_j |dxi_j ^ dxibar_j| = 2^(r-1) * Lebesgue.

    Computed by quadrature on the moduli profile.  The closed value is
    (2 pi)^(r-1)/r!; fiber averages elsewhere in this module divide by
    that closed form, so comparing the two calibrates the radial rules.
    """
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if r == 1:
        return 1.0
    u, w = radial_profile_rule(r - 1, n_radial=32)
    vals = (1.0 + u.sum(axis=1)) ** (-(r + 1.0))
    return float(2.0 ** (r - 1) * np.sum(w * vals))


# ---------------------------------------------------------------------------
# induced forms on the projectivized dual
# ---------------------------------------------------------------------------

def _split_points(model, pts):
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != model.n:
        raise ValueError(f"total-space points must have shape (n, {model.n})")
    return pts[:, : model.m], pts[:, model.m:]


def hat_form_matrix(metric, model, pts):
    """Coefficient stack (n, d, d) of the curvature form of the induced
    weight on the relative hyperplane line, d = m + r - 1, base directions
    first.  Equals the complex Hessian of log(lam H^{-1} lam*) against the
    affine frame lam = (1, xi); the metric enters through its exact
    derivative tables and the fiber dependence is closed-form.

    H^{-1}, its derivatives and their H^{-1} sandwiches depend on the base
    point alone.  They are evaluated once per run of equal consecutive base
    rows (`_base_runs`), so once per base node on a total-space rule, and
    only their contractions with lam run at every node.
    """
    z, xi = _split_points(model, pts)
    n = pts.shape[0]
    m = model.m
    d = model.n
    r = metric.r

    first, sizes = _base_runs(z)
    zb = z[first]
    p = metric.inverse(zb)
    dh = metric.d_matrix(zb)
    dbarh = np.conj(np.swapaxes(dh, -1, -2))
    ddh = metric.dd_matrix(zb)
    pdh = np.einsum("nij,najk,nkl->nail", p, dh, p)
    pdbh = np.einsum("nij,nbjk,nkl->nbil", p, dbarh, p)
    dp = -pdh
    ddp = (
        -np.einsum("nij,nabjk,nkl->nabil", p, ddh, p)
        + np.einsum("nbij,najk,nkl->nabil", pdbh, dh, p)
        + np.einsum("naij,nbjk,nkl->nabil", pdh, dbarh, p)
    )

    lam = np.concatenate([np.ones((n, 1), dtype=complex), xi], axis=1)
    p = np.repeat(p, sizes, axis=0)
    u, q = _dual_pairing(p, lam)
    # lam dP_a and lam ddP_ab at every node, one batched matmul
    ops = np.concatenate([dp, ddp.reshape(len(first), m * m, r, r)], axis=1)
    lamop = (lam[:, None, None, :] @ np.repeat(ops, sizes, axis=0))[:, :, 0]
    oplam = np.einsum("nkj,nj->nk", lamop, np.conj(lam))
    lamdp = lamop[:, :m]
    dplam = oplam[:, :m]
    ddplam = oplam[:, m:].reshape(n, m, m)

    w = np.empty((n, d, d), dtype=complex)
    w[:, :m, :m] = (
        ddplam / q[:, None, None]
        - dplam[:, :, None] * np.conj(dplam)[:, None, :] / q[:, None, None] ** 2
    )
    cross = (
        lamdp[:, :, 1:] / q[:, None, None]
        - dplam[:, :, None] * np.conj(u)[:, None, 1:] / q[:, None, None] ** 2
    )
    w[:, :m, m:] = cross
    w[:, m:, :m] = np.conj(np.swapaxes(cross, 1, 2))
    w[:, m:, m:] = (
        p[:, 1:, 1:] / q[:, None, None]
        - u[:, 1:, None] * np.conj(u)[:, None, 1:] / q[:, None, None] ** 2
    )
    return w


def lifted_base_form(kahler, model, pts):
    """Pullback of the base form to the total chart: base block, zero fiber
    block, shape (n, d, d)."""
    z, _ = _split_points(model, pts)
    out = np.zeros((pts.shape[0], model.n, model.n), dtype=complex)
    out[:, : model.m, : model.m] = kahler.matrix(z)
    return out


def volume_coefficients(metric, kahler, model, pts):
    """Coefficients E_j, j = 0..m, of det(W + t Omega) in t, where W is the
    induced form and Omega the lifted base form; shape (m+1, n).  The top
    coefficient factors as det(G) det(W_fib) and carries the leading
    measure; the ratios E_j/E_m weight the fiber averages."""
    w = hat_form_matrix(metric, model, pts)
    om = lifted_base_form(kahler, model, pts)
    return mixed_volume_coefficients(w, om, model.m)


def level_volume_density(metric, kahler, model, pts):
    """Reduced counting measure of the k-scaled combined form against the
    coordinate Lebesgue measure on the total chart, k = `model.k`:

        2^n (2 pi)^{-m} sum_j k^(j-m) E_j.

    At k -> infinity this tends to the product of the reduced base density
    and the fiber volume form."""
    e = volume_coefficients(metric, kahler, model, pts)
    kpow = float(model.k) ** (np.arange(model.m + 1.0) - model.m)
    dens = 2.0**model.n / (2.0 * math.pi) ** model.m * np.einsum("j,jn->n", kpow, e)
    if not np.all(np.isfinite(dens)) or np.any(dens <= 0.0):
        raise NumericalGuardError(
            "volume density must be positive and finite on the chart; "
            "the metric data is degenerate at some node"
        )
    return dens


# ---------------------------------------------------------------------------
# fiber averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberAverage:
    """One fiber integral of the dual pairing: `g_tilde` is the raw
    metric-valued average, `psi` the same data measured against the input
    metric (H^{-1} g_tilde)."""

    g_tilde: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class PushForwardTable:
    """All coefficient-weighted fiber averages at once, k-independent.

    m_tilde[j] is the E_j/E_m-weighted average, shape (n, r, r); the level
    metric at any k is sum_j k^(j-m) m_tilde[j].  psi[j] = H^{-1} m_tilde[j],
    so psi[m] is the identity up to quadrature error."""

    points: np.ndarray
    m_tilde: np.ndarray
    psi: np.ndarray


def _check_fiber_rule(model, rule):
    if rule.dim != model.fiber_dim:
        raise ValueError(
            f"fiber rule has dimension {rule.dim}, expected {model.fiber_dim}")


def _adapted_fiber_points(metric, model, z, xi):
    """Fiber nodes pulled back through the metric-adapted affine frame.

    The dual pairing at base point z is a Hermitian quadratic in xi whose
    decay scale degenerates where the metric does; completing the square,
    q(xi) = kappa (1 + |w|^2) for the affine change xi = xi0 + sqrt(kappa)
    w L^{-1} (Schur complement kappa, Cholesky factor L of the fiber block
    of H^{-1}).  Pulling quadrature nodes through that change keeps the
    integrand scale uniform over the base.

    Returns total points (nb*nf, n) and the squared Jacobian factor (nb,).
    """
    nb, nf = z.shape[0], xi.shape[0]
    pts = np.empty((nb * nf, model.n), dtype=complex)
    pts[:, : model.m] = np.repeat(z, nf, axis=0)
    if model.r == 1:
        return pts, np.ones(nb)
    p = metric.inverse(z)
    b = p[:, 1:, 0]
    bmat = p[:, 1:, 1:]
    y = np.linalg.solve(bmat, b[..., None])[..., 0]
    kappa = (p[:, 0, 0] - np.einsum("nc,nc->n", np.conj(b), y)).real
    xi0 = -np.conj(y)
    linv = np.linalg.inv(np.linalg.cholesky(bmat))
    moved = xi0[:, None, :] + np.sqrt(kappa)[:, None, None] * np.einsum(
        "fc,ncd->nfd", xi, linv)
    pts[:, model.m:] = moved.reshape(nb * nf, model.r - 1)
    jac2 = kappa ** (model.r - 1) / np.linalg.det(bmat).real
    return pts, jac2


def adapted_total_rule(metric, model, n_radial, n_angular=None):
    """Quadrature on the total chart with the fiber factor in the
    metric-adapted frame at each base node.  Use this instead of the plain
    tensor rule whenever the integrand sees the dual pairing; the plain
    rule loses accuracy where the fiber decay scale shrinks."""
    rb = base_rule(model, n_radial, n_angular)
    rf = fiber_rule(model, n_radial, n_angular)
    pts, jac2 = _adapted_fiber_points(metric, model, rb.points, rf.points)
    w = (rb.weights[:, None] * rf.weights[None, :] * jac2[:, None]).ravel()
    return ChartRule(pts, w)


def _fiber_geometry(metric, z, xi):
    """Dual pairing q, the fiber volume factor det(W_fib), and the
    covectors lam = (1, xi), for base points z (nb, m) and the fiber points
    above each of them, xi (nb, nf, r-1); outputs are shaped (nb, nf, ...).

    H^{-1} is evaluated once per base node.  The fiber block of the
    induced form is the complex Hessian of log(lam H^{-1} lam*) in xi, so
    det(W_fib) = det(H^{-1}) / q^r in closed form."""
    nb, nf = xi.shape[:2]
    lam = np.concatenate([np.ones((nb, nf, 1), dtype=complex), xi], axis=2)
    p = metric.inverse(z)
    _, q = _dual_pairing(p[:, None], lam)
    detwf = np.linalg.det(p).real[:, None] / q ** metric.r
    return q, detwf, lam


def _fiber_measure(metric, model, z, rule, pts, jac2):
    """Fiber measure (nb, nf) and covectors lam (nb, nf, r) at the nodes
    `pts`, `jac2` from `_adapted_fiber_points`; the measure integrates the
    dual pairing conj(lam) lam^T to the bundle metric."""
    r = model.r
    nb, nf = z.shape[0], rule.points.shape[0]
    q, detwf, lam = _fiber_geometry(
        metric, z, pts[:, model.m:].reshape(nb, nf, r - 1))
    meas = detwf / q * 2.0 ** (r - 1) \
        * rule.weights[None, :] * jac2[:, None] / _volume_constant_exact(r)
    return meas, lam


def _pairing_average(weight, lam):
    """sum_f weight[..., n, f] conj(lam[n, f, a]) lam[n, f, b]: the weighted
    fiber sum of the dual pairing, one batched product per base node
    without forming the (nb, nf, r, r) pairing."""
    weighted = np.conj(lam) * weight[..., None]
    return np.swapaxes(weighted, -1, -2) @ lam


def push_forward_table(metric, kahler, model, z, rule):
    """Fiber averages of the dual pairing against every volume-coefficient
    weight f_j = E_j/E_m, for base points z, on the fiber `rule`."""
    z = np.asarray(z, dtype=complex)
    _check_fiber_rule(model, rule)
    m = model.m
    nb, nf = z.shape[0], rule.points.shape[0]
    pts, jac2 = _adapted_fiber_points(metric, model, z, rule.points)

    e = volume_coefficients(metric, kahler, model, pts).reshape(m + 1, nb, nf)
    f = e / e[m]

    # after hat_form_matrix: its temporaries are the memory peak, and the
    # fiber tables alive through them would raise it
    meas, lam = _fiber_measure(metric, model, z, rule, pts, jac2)
    m_tilde = _pairing_average(f * meas, lam)
    h = metric.matrix(z)
    psi = np.stack([np.linalg.solve(h, m_tilde[j]) for j in range(m + 1)])
    return PushForwardTable(points=z, m_tilde=m_tilde, psi=psi)


def fiber_push_forward(metric, kahler, model, z, weight=None, *, rule):
    """One fiber average on the fiber `rule`.  weight None integrates the
    bare dual pairing, returning the bundle metric itself up to quadrature
    error; weight j in 0..m uses the volume-coefficient ratio E_j/E_m."""
    z = np.asarray(z, dtype=complex)
    _check_fiber_rule(model, rule)
    if weight is not None:
        if not 0 <= weight <= model.m:
            raise ValueError(f"weight index {weight} outside 0..{model.m}")
        table = push_forward_table(metric, kahler, model, z, rule=rule)
        return FiberAverage(g_tilde=table.m_tilde[weight], psi=table.psi[weight])

    pts, jac2 = _adapted_fiber_points(metric, model, z, rule.points)
    meas, lam = _fiber_measure(metric, model, z, rule, pts, jac2)
    g_tilde = _pairing_average(meas, lam)
    return FiberAverage(g_tilde=g_tilde, psi=np.linalg.solve(metric.matrix(z), g_tilde))


def level_metric_values(table, k):
    """Level metric on the section space at the table's base points:
    sum_j k^(j-m) m_tilde[j], shape (n, r, r)."""
    m = table.m_tilde.shape[0] - 1
    kpow = float(k) ** (np.arange(m + 1.0) - m)
    return np.einsum("j,jnab->nab", kpow, table.m_tilde)


# ---------------------------------------------------------------------------
# Grams
# ---------------------------------------------------------------------------

def l2_gram(basis, rule, weight, metric_values=None):
    """Weighted Gram of a section basis.

    With `metric_values` (a stack (n, r, r) over the rule nodes) the pairing
    is s_i^* H s_j against component tables on the base chart; without it,
    scalar embedding values on the total chart are paired directly, and any
    fiber weight must already be folded into `weight`.
    """
    weight = np.asarray(weight, dtype=float)
    wq = rule.weights * weight
    if metric_values is None:
        v = basis.eval_embedding(rule.points)
        # a weight that blew up is reported by the guard below
        with np.errstate(invalid="ignore", over="ignore"):
            g = l2_pairing(v, wq)
    else:
        c = basis.eval_components(rule.points)
        g = np.einsum("n,nia,nab,njb->ij", wq, np.conj(c), metric_values, c)
    if not np.all(np.isfinite(g)):
        raise NumericalGuardError(
            "Gram entries are not finite; the quadrature weight blew up")
    return make_gram(g)


# ---------------------------------------------------------------------------
# level endomorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BergmanEndomorphism:
    """Reproducing-kernel endomorphism field at one twist level.

    endomorphism(z) returns sum_i s_i (s_i)^* with the sections
    orthonormalized for the level Gram and dualized against the plain
    metric with the degree-k weight; it is self-adjoint for the bundle
    metric."""

    model: object
    k: int
    basis: object
    gram: object
    metric: object
    kahler: object

    def endomorphism(self, z):
        z = np.asarray(z, dtype=complex)
        comps = self.basis.eval_components(z)
        h = self.metric.matrix(z)
        bx = np.einsum("pq,npa,nqb->nab", self.gram.inverse(), comps,
                       np.conj(comps))
        scale = np.exp(-float(self.k) * self.kahler.potential(z))
        return np.einsum("nab,nbc->nac", bx, h) * scale[:, None, None]


def bergman_endomorphism(metric, kahler, model, rule, table):
    """Assemble the level endomorphism for `model.k` on the base `rule`.

    The Gram weights sections by the level metric (the fiber data pushed to
    the base), the degree-k potential weight, and the reduced base volume;
    the orthonormalization guard trips when the Gram is too ill-conditioned
    to trust.  `table` is the k-independent `push_forward_table` on the
    rule's nodes, built once per sweep and shared by its levels.
    """
    if not np.array_equal(table.points, rule.points):
        raise ValueError("push-forward table nodes differ from the base rule nodes")

    k = model.k
    hk = level_metric_values(table, k)
    weight = np.exp(-float(k) * kahler.potential(rule.points)) \
        * kahler.reduced_volume_density(rule.points)
    basis = build_section_basis(model)
    gram = l2_gram(basis, rule, weight, metric_values=hk)
    gram.guard()
    logger.debug("level endomorphism %s k=%d: N=%d, Gram condition %.3e",
                 model.label, k, basis.count, gram.condition())
    return BergmanEndomorphism(model=model, k=k, basis=basis, gram=gram,
                               metric=metric, kahler=kahler)


# ---------------------------------------------------------------------------
# density, two routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectDensity:
    """Squared-norm sum of an orthonormalized section basis on the total
    space, against the induced hyperplane weight at the twist level.

    `measure` is the level counting measure at the rule nodes, computed
    once by `rho_direct`; `measure_density` evaluates it elsewhere."""

    model: object
    basis: object
    gram: object
    metric: object
    kahler: object
    rule: object
    measure: np.ndarray

    def density(self, pts):
        pts = np.asarray(pts, dtype=complex)
        z = pts[:, : self.model.m]
        scale = hat_weight(self.metric, pts, self.model) \
            * np.exp(-float(self.model.k) * self.kahler.potential(z))
        v = self.basis.eval_embedding(pts)
        a = v @ self.gram.inverse()
        # v is ours: conjugate it in place rather than hold a second copy
        raw = np.einsum("nq,nq->n", a, np.conj(v, out=v)).real
        return raw * scale

    def measure_density(self, pts):
        return level_volume_density(self.metric, self.kahler, self.model, pts)

    def total_mass(self):
        return float(integrate(self.rule, self.density(self.rule.points) * self.measure))

    def volume(self):
        return float(integrate(self.rule, self.measure))


def rho_direct(metric, kahler, model, rule):
    """Density route that never touches the fiber push-forward: Gram and
    evaluation both live on the total chart `rule` with the induced
    hyperplane weight and the level counting measure."""
    basis = build_section_basis(model)
    # hat weight first: the measure's per-node temporaries then reuse the
    # heap that the weight's leave behind, which would otherwise stay
    # resident under l2_gram's (n, N) tables and raise the peak memory
    hw = hat_weight(metric, rule.points, model)
    dens = level_volume_density(metric, kahler, model, rule.points)
    z = rule.points[:, : model.m]
    weight = dens * hw * np.exp(-float(model.k) * kahler.potential(z))
    gram = l2_gram(basis, rule, weight)
    gram.guard()
    logger.debug("direct density %s: N=%d, Gram condition %.3e",
                 model.label, basis.count, gram.condition())
    return DirectDensity(model=model, basis=basis, gram=gram, metric=metric,
                         kahler=kahler, rule=rule, measure=dens)


def dual_point_projector(metric, z, lam):
    """Rank-one field of the dual pairing: at covector lam over z, the
    projector (u lam) / (lam u) with u = H^{-1} lam*.  Trace one,
    idempotent, self-adjoint for the metric, and invariant under rescaling
    of lam."""
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    if np.any(np.max(np.abs(lam), axis=1) == 0.0):
        raise ValueError("zero covector has no dual point")
    u, q = _dual_pairing(metric.inverse(z), lam)
    return np.einsum("na,nb->nab", u, lam) / q[:, None, None]


def rho_via_trace(bergman, pts):
    """Density through the base-level endomorphism: contract against the
    dual point projector and divide by the rank constant."""
    model = bergman.model
    pts = np.asarray(pts, dtype=complex)
    z, xi = _split_points(model, pts)
    lam = np.concatenate([np.ones((pts.shape[0], 1), dtype=complex), xi], axis=1)
    proj = dual_point_projector(bergman.metric, z, lam)
    b = bergman.endomorphism(z)
    return np.einsum("nab,nba->n", proj, b).real / _volume_constant_exact(model.r)


# ---------------------------------------------------------------------------
# first-correction candidates
# ---------------------------------------------------------------------------

def a1_formula(metric, kahler, z):
    """Displayed first-correction combination: trace-free mean curvature
    plus ((r+1)/2r) S times the identity, shape (n, r, r)."""
    z = np.asarray(z, dtype=complex)
    r = metric.r
    mc = mean_curvature(metric, kahler, z)
    s = kahler.scalar_curvature(z)
    tr = np.einsum("naa->n", mc)
    eye = np.eye(r)
    return (mc - (tr / r)[:, None, None] * eye
            + ((r + 1.0) / (2.0 * r)) * s[:, None, None] * eye)


def a1_alternative(metric, kahler, model, z, rule):
    """First correction realized by the level construction: mean curvature
    plus (S/2) I, minus the subleading fiber average psi_{m-1} on the fiber
    `rule`."""
    if model.m == 0:
        raise ValueError("needs a positive-dimensional base")
    z = np.asarray(z, dtype=complex)
    mc = mean_curvature(metric, kahler, z)
    s = kahler.scalar_curvature(z)
    sub = fiber_push_forward(metric, kahler, model, z, weight=model.m - 1, rule=rule)
    return mc + 0.5 * s[:, None, None] * np.eye(metric.r) - sub.psi


# ---------------------------------------------------------------------------
# expansion fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionFit:
    """Least-squares correction coefficients of a level sweep.

    The leading k^m identity term is pinned, not fitted; coefficients[i-1]
    estimates the k^(m-i) coefficient at each point.  residuals[j] is the
    sup-norm defect at level ks[j] and residual_slope its log-log rate."""

    ks: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    residual_slope: float


def expansion_fit(ks, values, m, orders=2):
    """Fit sum_i A_i k^(m-i), i = 1..orders-1, to level endomorphism values
    after subtracting the pinned k^m identity term.

    values[j] holds the endomorphism at level ks[j] on one fixed set of
    points, shape (levels, n, r, r); m is the base dimension."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values)
    if values.shape[0] != len(ks):
        raise ValueError("values must hold one level per entry of ks")
    if len(ks) < 3:
        raise ValueError("expansion grid needs at least 3 levels")
    if len(np.unique(ks)) != len(ks):
        raise ValueError("expansion grid has repeated levels")
    if orders < 2 or orders > len(ks):
        raise ValueError("orders must be between 2 and the number of levels")

    order = np.argsort(ks, kind="stable")
    ks, values = ks[order], values[order]
    r = values.shape[-1]
    y = values - ks[:, None, None, None] ** m * np.eye(r)

    design = ks[:, None] ** (m - np.arange(1, orders)[None, :])
    coef, *_ = np.linalg.lstsq(design, y.reshape(len(ks), -1), rcond=None)
    resid = y - (design @ coef).reshape(y.shape)
    residuals = np.max(np.abs(resid).reshape(len(ks), -1), axis=1)
    slope = float(np.polyfit(np.log(ks), np.log(np.maximum(residuals, 1e-16)), 1)[0])
    logger.debug("expansion fit: %d levels, orders=%d, residual slope %.3f",
                 len(ks), orders, slope)
    return ExpansionFit(
        ks=ks, coefficients=coef.reshape((orders - 1,) + values.shape[1:]),
        residuals=residuals, residual_slope=slope)


# ---------------------------------------------------------------------------
# fourth-order operator and the joint linearization
# ---------------------------------------------------------------------------

def lichnerowicz_apply(kahler, eta_fn, z):
    """Derivative of the scalar curvature along the potential deformation
    phi -> phi - t eta, by Richardson-extrapolated central differences in
    t.  This is the defining route; `scalar_curvature_variation` realizes
    the same operator through its expanded terms."""
    z = np.asarray(z, dtype=complex)
    t = 1e-3

    def s_at(tv):
        return PerturbedKahler(kahler, eta_fn, tv).scalar_curvature(z)

    d1 = (s_at(t) - s_at(-t)) / (2.0 * t)
    d2 = (s_at(0.5 * t) - s_at(-0.5 * t)) / t
    return (4.0 * d2 - d1) / 3.0


def scalar_curvature_variation(kahler, eta_fn, z):
    """Expanded form of the scalar-curvature derivative along -t eta:

        Delta(Delta eta) + tr(G^{-1} Hess(eta) G^{-1} Ric).

    Linear in eta by construction, unlike the difference-quotient route,
    which picks up quadratic truncation terms.  The inner step h is kept
    deliberately coarse: the outer stencil amplifies pointwise noise by
    h_outer^{-2}, and inner truncation error (linear in eta) is far less
    damaging than inner roundoff (not)."""
    h, h_outer = 2e-2, 4e-2
    z = np.asarray(z, dtype=complex)
    g = kahler.matrix(z)
    ginv = np.linalg.inv(g)

    def laplacian(q):
        gq = kahler.matrix(np.asarray(q, dtype=complex))
        hess = complex_hessian(eta_fn, q, h=h)
        return np.einsum("nba,nab->n", np.linalg.inv(gq), hess).real

    lap2 = complex_hessian(laplacian, z, h=h_outer)
    term1 = np.einsum("nba,nab->n", ginv, lap2).real
    hess = complex_hessian(eta_fn, z, h=h)
    ric = kahler.ricci_matrix(z)
    term2 = np.einsum("nab,nbc,ncd,nda->n", ginv, hess, ginv, ric).real
    return term1 + term2


def curvature_variation(metric, kfield, z):
    """Derivative of the curvature form for H_t = H + t K, K a pointwise
    Hermitian matrix field; shape (n, m, m, r, r), in the convention of
    `curvature_matrix`."""
    z = np.asarray(z, dtype=complex)
    h = metric.matrix(z)
    hinv = np.linalg.inv(h)
    dh = metric.d_matrix(z)
    dbarh = np.conj(np.swapaxes(dh, -1, -2))
    ddh = metric.dd_matrix(z)
    k0 = kfield.matrix(z)
    dk = kfield.d_matrix(z)
    dbark = np.conj(np.swapaxes(dk, -1, -2))
    ddk = kfield.dd_matrix(z)

    pk = np.einsum("nij,njk->nik", hinv, k0)
    pdh = np.einsum("nij,najk->naik", hinv, dh)
    pdbh = np.einsum("nij,nbjk->nbik", hinv, dbarh)
    pdk = np.einsum("nij,najk->naik", hinv, dk)
    pdbk = np.einsum("nij,nbjk->nbik", hinv, dbark)
    pddh = np.einsum("nij,nabjk->nabik", hinv, ddh)
    pddk = np.einsum("nij,nabjk->nabik", hinv, ddk)

    return (
        -np.einsum("nij,nbjk,nakl->nabil", pk, pdbh, pdh)
        + np.einsum("nbij,najk->nabik", pdbk, pdh)
        - np.einsum("nbij,njk,nakl->nabil", pdbh, pk, pdh)
        + np.einsum("nbij,najk->nabik", pdbh, pdk)
        + np.einsum("nij,nabjk->nabik", pk, pddh)
        - pddk
    )


def a11_apply(metric, kahler, model, phi_field, eta_fn, z, rule):
    """Joint linearization of the displayed first correction in the
    direction (h -> h(1 + t phi), omega -> omega - t i ddbar eta):

        tracefree(delta M) + ((r+1)/2r) (delta S) I

    with delta M the mean-curvature variation (curvature part through the
    exact six-term expansion, contraction part through the form direction)
    and delta S from `scalar_curvature_variation`.  Linear in (phi, eta).

    Preconditions, each reported by name when violated: phi self-adjoint
    for the metric with volume-mean-free trace, eta with zero volume mean,
    the metric Hermite-Einstein to 1e-6, and constant scalar curvature;
    the means and the Hermite-Einstein residual integrate on the base
    `rule`.
    """
    z = np.asarray(z, dtype=complex)
    zq = rule.points
    dens = kahler.reduced_volume_density(zq)
    vol = integrate(rule, dens)

    problems = []
    phi_vals = phi_field.matrix(zq)
    h_vals = metric.matrix(zq)
    hphi = np.einsum("nab,nbc->nac", h_vals, phi_vals)
    defect = np.max(np.abs(hphi - np.conj(np.swapaxes(hphi, 1, 2)))) \
        if hphi.size else 0.0
    scale = max(float(np.max(np.abs(phi_vals))), 1.0) if phi_vals.size else 1.0
    if defect > 1e-8 * scale:
        problems.append(f"phi is not metric-self-adjoint (defect {defect:.2e})")
    tr_mean = integrate(rule, np.einsum("naa->n", phi_vals).real * dens) / vol
    if abs(tr_mean) > 1e-8 * scale:
        problems.append(f"volume mean of tr(phi) is {tr_mean:.2e}, want 0")
    eta_mean = integrate(rule, np.asarray(eta_fn(zq), dtype=float) * dens) / vol
    if abs(eta_mean) > 1e-8:
        problems.append(f"volume mean of eta is {eta_mean:.2e}, want 0")
    he = hermitian_einstein_residual(metric, kahler, rule)
    if he > 1e-6:
        problems.append(f"Hermite-Einstein residual {he:.2e} exceeds 1e-06")
    s_vals = kahler.scalar_curvature(zq)
    spread = float(np.max(s_vals) - np.min(s_vals))
    if spread > 1e-6 * (1.0 + abs(float(np.mean(s_vals)))):
        problems.append(f"scalar curvature is not constant (spread {spread:.2e})")
    if problems:
        raise ValueError(
            "linearization preconditions violated: " + "; ".join(problems))

    r = metric.r
    kfield = MatrixField(
        model.m, r,
        fn=lambda q: np.einsum(
            "nab,nbc->nac", metric.matrix(np.asarray(q, dtype=complex)),
            phi_field.matrix(np.asarray(q, dtype=complex))),
        label="metric direction")

    df = curvature_variation(metric, kfield, z)
    g = kahler.matrix(z)
    ginv = np.linalg.inv(g)
    f = np.asarray(curvature_matrix(metric, z))
    hess_eta = complex_hessian(eta_fn, z)
    # delta of the contraction: Lambda(i delta F) plus the derivative of
    # Lambda itself along delta G = -Hess(eta)
    delta_m = (np.einsum("nba,nabij->nij", ginv, df)
               + np.einsum("nbc,ncd,nda,nabij->nij", ginv, hess_eta, ginv, f))
    tr = np.einsum("naa->n", delta_m)
    eye = np.eye(r)
    ds = scalar_curvature_variation(kahler, eta_fn, z)
    return (delta_m - (tr / r)[:, None, None] * eye
            + ((r + 1.0) / (2.0 * r)) * ds[:, None, None] * eye)
