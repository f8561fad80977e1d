"""Fiber integrals and density fields for projectivized bundle models.

The chain implemented here, bottom to top:

* the induced form on the projectivized dual (`hat_form_matrix`) and the
  volume coefficients of its k-scaled combination with the base form;
* fiber averages of the dual pairing against those coefficient weights
  (`push_forward_table`, k-independent and built once per sweep, and the
  single average `fiber_push_forward`); the table gives the level metric
  on the section space at any k (`level_metric_values`); both evaluate
  H^{-1} and the base form per base node, not per fiber node;
* the level Gram (`l2_gram`, one GEMM against the level metric), the
  level endomorphism field (`bergman_endomorphism`), and two independent
  density routes (`rho_direct` combines the k-independent `direct_table`
  with k, pairs one section table on the total space into its Gram,
  `direct_gram` alone, and keeps the density there, `rho_via_trace`
  contracts the endomorphism against a rank-one projector);
* candidate first-correction fields (`a1_formula`, `a1_alternative`), the
  sweep fitter (`expansion_fit`, on the levels and the endomorphism
  values each level produced), and the joint linearization of the first
  correction in a metric/form direction (`a11_apply`) together with the
  fourth-order scalar operator it contains (`scalar_curvature_variation`,
  which the tests hold to the difference quotient that defines it).

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
from .kahler import (complex_hessian, hermitian_det, lambda_contract,
                     mixed_volume_coefficients)
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
from .quadrature import ChartRule, chart_rule, integrate
from .sections import (
    affine_frame,
    base_rule,
    build_section_basis,
    fiber_rule,
    split_points,
)

logger = logging.getLogger(__name__)

__all__ = [
    "adapted_fiber_degree",
    "adapted_fiber_radial_degree",
    "adapted_fiber_rule",
    "adapted_fiber_check",
    "adapted_total_rule",
    "c_r_constant",
    "hat_form_matrix",
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
    "DirectTable",
    "direct_table",
    "DirectDensity",
    "direct_gram",
    "rho_direct",
    "dual_point_projector",
    "rho_via_trace",
    "a1_formula",
    "a1_alternative",
    "ExpansionFit",
    "expansion_fit",
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


def _gauss_legendre_count(degree):
    """Gauss-Legendre nodes exact to `degree`: n nodes reach 2 n - 1."""
    return (degree + 2) // 2


@functools.lru_cache(maxsize=None)
def c_r_constant(r):
    """Total mass of the unnormalized fiber density: the integral over
    C^(r-1) of (1 + |xi|^2)^(-(r+1)) against the coordinate measure
    prod_j |dxi_j ^ dxibar_j| = 2^(r-1) * Lebesgue.

    Computed on a one-angle `chart_rule` (the integrand is radial) with the
    nodes that its degree r - 1 in t = s/(1+s) needs; fiber averages
    elsewhere in this module divide by the closed value (2 pi)^(r-1)/r!.
    """
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if r == 1:
        return 1.0
    rule = chart_rule(r - 1, _gauss_legendre_count(r - 1), n_angular=1)
    vals = (1.0 + np.sum(np.abs(rule.points) ** 2, axis=1)) ** (-(r + 1.0))
    return float(2.0 ** (r - 1) * np.sum(rule.weights * vals))


# ---------------------------------------------------------------------------
# induced forms on the projectivized dual
# ---------------------------------------------------------------------------

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
    z, xi = split_points(model, pts)
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

    lam = affine_frame(xi)
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


def volume_coefficients(metric, kahler, model, pts):
    """Coefficients E_j, j = 0..m, of det(W + t Omega) in t, where W is the
    induced form and Omega the base form in the base block; shape (m+1, n).
    The top coefficient factors as det(G) det(W_fib) and carries the
    leading measure; the ratios E_j/E_m weight the fiber averages.  Both
    forms are evaluated once per run of equal base rows (`_base_runs`)."""
    w = hat_form_matrix(metric, model, pts)
    z, _ = split_points(model, pts)
    first, sizes = _base_runs(z)
    om = np.zeros_like(w)
    om[:, : model.m, : model.m] = np.repeat(kahler.matrix(z[first]), sizes,
                                            axis=0)
    return mixed_volume_coefficients(w, om, model.m)


def level_volume_density(metric, kahler, model, pts):
    """Reduced counting measure of the k-scaled combined form against the
    coordinate Lebesgue measure on the total chart, k = `model.k`:

        2^n (2 pi)^{-m} sum_j k^(j-m) E_j.

    At k -> infinity this tends to the product of the reduced base density
    and the fiber volume form."""
    return _level_density(metric, model,
                          volume_coefficients(metric, kahler, model, pts))


def _level_density(metric, model, e):
    """`level_volume_density` from its volume coefficients `e`, guarded."""
    kpow = float(model.k) ** (np.arange(model.m + 1.0) - model.m)
    dens = 2.0**model.n / (2.0 * math.pi) ** model.m * np.einsum("j,jn->n", kpow, e)
    ok = np.isfinite(dens) & (dens > 0.0)
    if not ok.all():
        node = int(np.argmin(ok))
        raise NumericalGuardError(
            f"level volume density {dens[node]:.3e} at node {node} of "
            f"{len(dens)} on {model.label} with bundle metric {metric.label} "
            "is not positive and finite, as the combined form must be on "
            "the chart: check that the metric and its derivative tables "
            "are finite and positive definite at that node")
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
    metric at any k is sum_j k^(j-m) m_tilde[j], and m_tilde[m] is the
    bundle metric up to quadrature error (`fiber_push_forward` forms psi)."""

    points: np.ndarray
    m_tilde: np.ndarray


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

    Returns total points (nb*nf, n), the squared Jacobian factor (nb,) and
    H^{-1} at the base points (nb, r, r), which `_fiber_measure` reads.
    """
    nb, nf = z.shape[0], xi.shape[0]
    pts = np.empty((nb * nf, model.n), dtype=complex)
    pts[:, : model.m] = np.repeat(z, nf, axis=0)
    p = metric.inverse(z)
    if model.r == 1:
        return pts, np.ones(nb), p
    b = p[:, 1:, 0]
    bmat = p[:, 1:, 1:]
    y = np.linalg.solve(bmat, b[..., None])[..., 0]
    kappa = (p[:, 0, 0] - np.einsum("nc,nc->n", np.conj(b), y)).real
    xi0 = -np.conj(y)
    linv = np.linalg.inv(np.linalg.cholesky(bmat))
    moved = xi0[:, None, :] + np.sqrt(kappa)[:, None, None] * np.einsum(
        "fc,ncd->nfd", xi, linv)
    pts[:, model.m:] = moved.reshape(nb * nf, model.r - 1)
    jac2 = kappa ** (model.r - 1) / hermitian_det(bmat)
    return pts, jac2, p


def adapted_fiber_degree(model):
    """Highest frequency, in any one fiber angle, of the integrands that
    run on `adapted_fiber_rule`: m + 1 (derived there)."""
    return model.m + 1


def adapted_fiber_radial_degree(model):
    """Highest degree in t = s/(1+s) of the same integrands after the
    angular average: m + r - 1 (derived in `adapted_fiber_rule`)."""
    return model.m + model.r - 1


def adapted_fiber_rule(model, raise_degree=0):
    """Fiber rule for integrands in the metric-adapted frame of
    `_adapted_fiber_points`, sized by their degree alone: m + 2 angles per
    fiber coordinate and ceil((m + r)/2) radial nodes.  `raise_degree`
    sizes it for integrands that many degrees higher in each fiber angle
    and in t.  Every rule that goes through that frame is built here or by
    `adapted_total_rule`.

    Why that is exact.  At a base node the adapted change
    xi = xi0 + sqrt(kappa) w L^{-1} makes the dual pairing
    q = kappa (1 + |w|^2), and lam = (1, xi) affine in w.  With
    w_c = rho_c exp(i theta_c), a Hermitian quadratic lam A lam* has
    frequencies -1, 0 and 1 in each theta_c, and q, its powers and the
    Jacobian (constant per base node) have frequency 0.  The integrands:

    * push-forward weight j: conj(lam_a) lam_b f_j times the fiber measure
      det(W_fib) / q, a multiple of q^-(r+1).  The ratio f_j = E_j / E_m
      is the t^j coefficient of det(S + t G) / det(G), where S is the
      Schur complement of the fiber block of the induced form: the
      horizontal curvature, whose entries are quadratics lam A lam* over
      q.  So f_j is a sum of products of m - j of them, and the integrand
      has frequency at most m - j + 1 <= m + 1;
    * the direct route (`rho_direct` on `adapted_total_rule`): the Gram
      and the mass pair two sections, each linear in lam, against the hat
      weight 1/q and the level density sum_j k^(j-m) E_j, with
      E_m a multiple of q^-r: frequency at most m + 1 again.

    The trapezoid rule on n equispaced angles integrates exp(i p theta)
    exactly for |p| < n (Trefethen & Weideman, SIAM Review 56, 2014), so
    m + 2 angles are exact.  After that average each integrand is a
    polynomial of degree at most 1 + m - j in the moduli |w_c|^2 over
    (1 + s)^(r + 1 + m - j), s = |w|^2.  The chart rule writes the moduli
    as s x, x on the simplex; with the measure's s^(r-2) ds, t = s/(1+s)
    makes that a polynomial of degree at most m + r - 1 in t, and of no
    higher degree in x, which Gauss-Legendre integrates exactly on
    ceil((m + r)/2) nodes.  One angle or one node fewer is not enough: on
    a metric whose off-diagonal part varies over the base, the table then
    moves by 4e-3 to 0.8 of its largest entry.  A statistic quadratic in
    the density, such as the variance `expansion_job` reports, has degree
    m + 2 per angle and m + r in t, one more than the rule's: it takes
    `raise_degree` 1.  `adapted_fiber_check` tests both bounds.
    """
    return fiber_rule(
        model,
        _gauss_legendre_count(adapted_fiber_radial_degree(model)
                              + raise_degree),
        n_angular=adapted_fiber_degree(model) + raise_degree + 1)


# relative move of a push-forward table under two more fiber angles and
# radial nodes beyond which `adapted_fiber_check` rejects the degree
# bounds: about 1e-14 when they hold, 4e-3 or more one short of them
_FIBER_CHECK_TOL = 1e-10


def adapted_fiber_check(metric, kahler, model, table):
    """Self-estimate of `adapted_fiber_rule`: rebuild `table`, the
    push-forward table on that rule, with two more angles per fiber
    coordinate and two more radial nodes, and return the largest entry
    move relative to the largest entry.  A move above 1e-10 raises
    `NumericalGuardError` naming the model, both counts and both degrees."""
    degree = adapted_fiber_degree(model)
    radial = adapted_fiber_radial_degree(model)
    n_angular, n_radial = degree + 1, _gauss_legendre_count(radial)
    finer = push_forward_table(
        metric, kahler, model, table.points,
        rule=fiber_rule(model, n_radial + 2, n_angular=n_angular + 2))
    scale = float(np.max(np.abs(table.m_tilde)))
    move = float(np.max(np.abs(finer.m_tilde - table.m_tilde))) / scale
    if not move <= _FIBER_CHECK_TOL:  # fails closed on NaN
        raise NumericalGuardError(
            f"adapted fiber rule on {model.label}: the push-forward table "
            f"moved by {move:.2e} (relative) from {n_angular} to "
            f"{n_angular + 2} angles per fiber coordinate and from "
            f"{n_radial} to {n_radial + 2} radial nodes, above "
            f"{_FIBER_CHECK_TOL:g}; the rule assumes the fiber integrands "
            f"are trigonometric polynomials of degree {degree} in each "
            f"fiber angle and polynomials of degree {radial} in t "
            "(bergman.adapted_fiber_degree, adapted_fiber_radial_degree), "
            "and the integrands of this metric are not")
    return move


def adapted_total_rule(metric, model, n_radial, raise_degree=0):
    """The base rule on `n_radial` times `adapted_fiber_rule(model,
    raise_degree)` in the metric-adapted frame at each base node.  Use
    this instead of the plain tensor rule whenever the integrand sees the
    dual pairing; the plain rule loses accuracy where the fiber decay
    scale shrinks."""
    rb = base_rule(model, n_radial)
    rf = adapted_fiber_rule(model, raise_degree)
    pts, jac2, _ = _adapted_fiber_points(metric, model, rb.points, rf.points)
    w = (rb.weights[:, None] * rf.weights[None, :] * jac2[:, None]).ravel()
    return ChartRule(pts, w)


def _fiber_measure(model, rule, pts, jac2, hinv):
    """Fiber measure (nb, nf) and covectors lam = (1, xi) (nb, nf, r) at
    the nodes `pts` of `rule`, with `jac2` and H^{-1} per base node (`hinv`)
    from `_adapted_fiber_points`; the measure integrates the dual pairing
    conj(lam) lam^T to the bundle metric.  The fiber block of the induced
    form is the complex Hessian of log q in xi, q = lam H^{-1} lam*, so
    det(W_fib) = det(H^{-1}) / q^r in closed form."""
    r = model.r
    nb, nf = hinv.shape[0], rule.points.shape[0]
    lam = affine_frame(pts[:, model.m:].reshape(nb, nf, r - 1))
    _, q = _dual_pairing(hinv[:, None], lam)
    detwf = hermitian_det(hinv)[:, None] / q ** r
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
    weight f_j = E_j/E_m, for base points z, on the fiber `rule`; H^{-1}
    and the base form are evaluated per base node, not per fiber node."""
    z = np.asarray(z, dtype=complex)
    _check_fiber_rule(model, rule)
    m = model.m
    nb, nf = z.shape[0], rule.points.shape[0]
    pts, jac2, hinv = _adapted_fiber_points(metric, model, z, rule.points)

    e = volume_coefficients(metric, kahler, model, pts).reshape(m + 1, nb, nf)
    f = e / e[m]

    # after hat_form_matrix: its temporaries are the memory peak, and the
    # fiber tables alive through them would raise it
    meas, lam = _fiber_measure(model, rule, pts, jac2, hinv)
    return PushForwardTable(points=z, m_tilde=_pairing_average(f * meas, lam))


def fiber_push_forward(metric, kahler, model, z, weight=None, *, rule):
    """One fiber average on the fiber `rule`.  weight None integrates the
    bare dual pairing, returning the bundle metric itself up to quadrature
    error; weight j in 0..m reads the E_j/E_m average off
    `push_forward_table`.  The bare pairing skips the table's volume
    coefficients and inverts H once per base node; psi is one solve
    against H either way."""
    z = np.asarray(z, dtype=complex)
    _check_fiber_rule(model, rule)
    if weight is None:
        pts, jac2, hinv = _adapted_fiber_points(metric, model, z, rule.points)
        g_tilde = _pairing_average(
            *_fiber_measure(model, rule, pts, jac2, hinv))
    elif 0 <= weight <= model.m:
        g_tilde = push_forward_table(metric, kahler, model, z,
                                     rule=rule).m_tilde[weight]
    else:
        raise ValueError(f"weight index {weight} outside 0..{model.m}")
    return FiberAverage(g_tilde=g_tilde,
                        psi=np.linalg.solve(metric.matrix(z), g_tilde))


def level_metric_values(table, k):
    """Level metric on the section space at the table's base points:
    sum_j k^(j-m) m_tilde[j], shape (n, r, r)."""
    m = table.m_tilde.shape[0] - 1
    kpow = float(k) ** (np.arange(m + 1.0) - m)
    return np.einsum("j,jnab->nab", kpow, table.m_tilde)


# ---------------------------------------------------------------------------
# Grams
# ---------------------------------------------------------------------------

def l2_gram(basis, rule, weight, metric_values):
    """Weighted Gram sum_n w_n s_i^* H_n s_j of a section basis against
    the bundle metric stack `metric_values` (n, r, r) at the rule nodes:
    one GEMM over the node and bundle axes of the component tables.  A
    weight that blew up leaves non-finite entries for `make_gram`."""
    c = basis.eval_components(rule.points)
    with np.errstate(invalid="ignore", over="ignore"):
        cw = np.conj(c) * (rule.weights * weight)[:, None, None]
        g = np.tensordot(cw, metric_values @ np.swapaxes(c, 1, 2),
                         axes=([0, 2], [0, 1]))
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

def _section_density(v, gram, scale):
    """scale * v G^{-1} v^* on an embedding table v (n, N), which is
    conjugated in place rather than held twice."""
    a = v @ gram.inverse()
    return np.einsum("nq,nq->n", a, np.conj(v, out=v)).real * scale


@dataclass(frozen=True)
class DirectTable:
    """The direct route's k-independent data at the nodes of its total
    chart `rule`: the volume coefficients E_j, shape (m+1, n), and the hat
    weight.  `rho_direct` combines it with each level's k."""

    metric: object
    kahler: object
    rule: object
    coefficients: np.ndarray
    hat: np.ndarray


def direct_table(metric, kahler, model, rule):
    """`DirectTable` on the total `rule`, once per sweep: no k enters it."""
    return DirectTable(
        metric=metric, kahler=kahler, rule=rule,
        coefficients=volume_coefficients(metric, kahler, model, rule.points),
        hat=hat_weight(metric, rule.points, model))


@dataclass(frozen=True)
class DirectDensity:
    """Squared-norm sum of an orthonormalized section basis on the total
    space, against the induced hyperplane weight at the twist level.

    `measure` and `node_density` are the level counting measure and the
    density at the `table`'s nodes, from the pass in which `rho_direct`
    paired the Gram; `measure_density` and `density` evaluate them
    elsewhere, and `on_table` at the nodes of another `direct_table`.
    `total_mass` on the Gram's own rule is tr(G^{-1} G) = N up to roundoff."""

    model: object
    basis: object
    gram: object
    table: DirectTable
    measure: np.ndarray
    node_density: np.ndarray

    def density(self, pts):
        pts = np.asarray(pts, dtype=complex)
        z = pts[:, : self.model.m]
        scale = hat_weight(self.table.metric, pts, self.model) \
            * np.exp(-float(self.model.k) * self.table.kahler.potential(z))
        return _section_density(self.basis.eval_embedding(pts), self.gram,
                                scale)

    def measure_density(self, pts):
        return level_volume_density(self.table.metric, self.table.kahler,
                                    self.model, pts)

    def on_table(self, table):
        """`density` and `measure_density` at the nodes of `table`, another
        `direct_table` of the sweep, from its k-independent data: one
        section table, and no H^{-1} or volume coefficient again."""
        measure, e = _level_weights(self.model, table)
        v = self.basis.eval_embedding(table.rule.points)
        return _section_density(v, self.gram, table.hat * e), measure

    def total_mass(self):
        return float(integrate(self.table.rule,
                               self.node_density * self.measure))

    def volume(self):
        return float(integrate(self.table.rule, self.measure))


def _level_weights(model, table):
    """Level k's counting measure sum_j k^(j-m) E_j and exp(-k phi) at the
    nodes of a `direct_table`."""
    e = np.exp(-float(model.k)
               * table.kahler.potential(table.rule.points[:, : model.m]))
    return _level_density(table.metric, model, table.coefficients), e


def _direct_level(model, table):
    """Level k on the sweep's `direct_table`: the section basis, its table
    at the nodes, the level counting measure sum_j k^(j-m) E_j, exp(-k phi)
    and the guarded Gram they pair, the direct route's Gram's one home."""
    rule = table.rule
    basis = build_section_basis(model)
    dens, e = _level_weights(model, table)
    v = basis.eval_embedding(rule.points)
    # a weight that blew up is reported by make_gram's finite check
    with np.errstate(invalid="ignore", over="ignore"):
        gram = make_gram(l2_pairing(v, rule.weights * (dens * table.hat * e)))
    gram.guard()
    return basis, v, dens, e, gram


def direct_gram(model, table):
    """The direct route's guarded Gram at level k (`_direct_level`), for a
    reader of the Gram alone: no density is formed."""
    return _direct_level(model, table)[-1]


def rho_direct(model, table):
    """Density route that never touches the fiber push-forward: Gram and
    evaluation both live on the total chart rule of the sweep's
    `direct_table` with the induced hyperplane weight and the level
    counting measure.  Level k forms only sum_j k^(j-m) E_j, exp(-k phi)
    and one section table, which gives the Gram (`_direct_level`) and the
    density kept."""
    basis, v, dens, e, gram = _direct_level(model, table)
    logger.debug("direct density %s: N=%d, Gram condition %.3e",
                 model.label, basis.count, gram.condition())
    return DirectDensity(model, basis, gram, table, measure=dens,
                         node_density=_section_density(v, gram, table.hat * e))


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
    z, xi = split_points(model, pts)
    proj = dual_point_projector(bergman.metric, z, affine_frame(xi))
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
    sup-norm defect of the fit at level ks[j]."""

    ks: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray


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
    if len(set(ks.tolist())) != len(ks):
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
    logger.debug("expansion fit: %d levels, orders=%d, largest residual %.3e",
                 len(ks), orders, residuals.max())
    return ExpansionFit(
        ks=ks, coefficients=coef.reshape((orders - 1,) + values.shape[1:]),
        residuals=residuals)


# ---------------------------------------------------------------------------
# fourth-order operator and the joint linearization
# ---------------------------------------------------------------------------

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
        return lambda_contract(gq, complex_hessian(eta_fn, q, h=h)).real

    term1 = lambda_contract(g, complex_hessian(laplacian, z, h=h_outer)).real
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
    delta_m = (lambda_contract(g, df)
               + np.einsum("nbc,ncd,nda,nabij->nij", ginv, hess_eta, ginv, f))
    tr = np.einsum("naa->n", delta_m)
    eye = np.eye(r)
    ds = scalar_curvature_variation(kahler, eta_fn, z)
    return (delta_m - (tr / r)[:, None, None] * eye
            + ((r + 1.0) / (2.0 * r)) * ds[:, None, None] * eye)
