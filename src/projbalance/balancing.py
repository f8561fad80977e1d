"""Balanced embeddings of the model total spaces.

A Gram matrix G on the section space defines a projective embedding through
any G-orthonormal frame; pulling back the ambient form gives a metric on the
total space, and the L2 pairing of the frame against that metric produces an
N x N matrix whose trace-free part is the moment of the embedding.  The
embedding is balanced when the moment vanishes, i.e. when the frame is
orthonormal for its own induced L2 structure.

Contents, bottom to top:

* `su_basis` builds trace-orthonormal Hermitian generators, the coordinate
  system for every moment and spectral quantity below;
* `embedding_state` bundles a model, a section basis, a Gram matrix, a
  quadrature rule, and cached section values; `EmbeddingState.transform` is
  derived from the Gram, and `EmbeddingState.with_gram` derives a state with
  another Gram that shares every table, so the iteration loops never
  re-evaluate monomial tables;
* `moment_map` integrates the frame pairings against the pulled-back volume
  and subtracts the balanced value V/N;
* `t_map_step` and `gradient_flow_step` are the two solvers: the fixed-point
  update G -> (N/V) <s_i, s_j> and the line-searched exponential descent
  along the moment direction.  `balance_iterate` and `flow_iterate` drive
  them with shared divergence detection.  `balance_iterate` is the only
  T-iteration driver: it accelerates the fixed point by type-II Anderson
  mixing of the last `_ANDERSON_MEMORY` T-map images on the traceless log
  of the Gram, with a safeguard that takes the plain T-step whenever the
  mix would raise the moment norm.  The plain iteration, `t_map_step`
  repeated, is the reference the tests compare against.
  `balanced_density_stats` evaluates the density whose constancy
  certifies the result, and `embedding_form_field` exposes the
  pulled-back metric at arbitrary points for comparability probes;
* `sigma_z_operator` integrates squared normal components of the su(N)
  action fields without forming them: with P the normal projector at a
  node, the integrand (xi_a u)^H P (xi_b u) / |u|^2 is a fixed contraction
  of the generators with one N^2 x N^2 node sum, a single GEMM;
  `eig_estimate` extracts its smallest positive eigenvalue and
  `lambda_fit_exponent` the growth exponent of the reciprocal along a
  k-sweep (the sweep itself is `suites.spectrum_job`);
* `r_bounded_check` and `almost_balanced_check` are the acceptance gates:
  two-sided comparability of a metric against a reference, and decay-order
  classification of a moment sequence.  The comparability check reads all
  its finite differences from one table of field values on a lattice of
  offsets around the nodes (`_comparability_stencil`: one row of weights
  per multiset of directions), filled in blocks of at most 1,024 points.

Each geometric quantity has one routine.  `_pullback_data` is the package's
only pull-back formula (the metric d d-bar log |u|^2 of a frame table and
its volume density); `_fs_geometry` applies it at the rule nodes and
`embedding_form_field` at arbitrary points.  `metrics.l2_pairing` is the
only L2 pairing of a node table against the pulled-back volume; the moment
pairs the frame, the T-step the raw basis values, and the density the frame
again.

A state makes one geometry pass for the moment and the T-step together:
its memo `EmbeddingState._pairings` keeps the volume and both pairings (a
scalar and two N x N matrices, no node table), so an iteration computes
`_fs_geometry` once per state it visits: an Anderson step visits its mixed
state, and a safeguard fallback the plain one as well.  The node sums are
matrix products on BLAS.

All volumes are reduced by (2 pi)^dim as elsewhere in the package.
"""

import itertools
import logging
import math
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .bergman import adapted_total_rule
from .errors import NumericalGuardError
from .metrics import GramMatrix, l2_pairing, make_gram
from .quadrature import ChartRule
from .sections import build_section_basis, total_rule

logger = logging.getLogger(__name__)

__all__ = [
    "su_basis",
    "EmbeddingState",
    "embedding_state",
    "MomentValue",
    "moment_map",
    "t_map_step",
    "balanced_density_stats",
    "embedding_form_field",
    "BalanceReport",
    "balance_iterate",
    "flow_iterate",
    "gradient_flow_step",
    "SigmaZOperator",
    "sigma_z_operator",
    "EigEstimate",
    "eig_estimate",
    "lambda_fit_exponent",
    "RBoundedReport",
    "r_bounded_check",
    "OrderVerdict",
    "almost_balanced_check",
]


def su_basis(n):
    """Trace-orthonormal basis of the traceless Hermitian n x n matrices.

    Off-diagonal pairs (E_ij + E_ji)/sqrt(2) and (-i E_ij + i E_ji)/sqrt(2),
    then the n - 1 diagonal matrices diag(1, .., 1, -l, 0, ..)/sqrt(l(l+1)).
    tr(x_a x_b) = delta_ab, so coefficients are plain traces.
    """
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            gens.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[i, j] = -1j / math.sqrt(2.0)
            f[j, i] = 1j / math.sqrt(2.0)
            gens.append(f)
    for lvl in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[np.arange(lvl), np.arange(lvl)] = 1.0
        d[lvl, lvl] = -float(lvl)
        gens.append(d / math.sqrt(lvl * (lvl + 1.0)))
    return np.stack(gens)


@dataclass(frozen=True, eq=False)
class EmbeddingState:
    """A Gram matrix on a section space plus everything needed to integrate
    against the embedding it induces.

    `transform` columns are a G-orthonormal frame: transform^H G transform
    is the identity; it is the Gram's whitener, derived on each read, so no
    copy with another Gram keeps a stale one.  `values` and `jet` are the
    basis tables at the rule nodes, cached so iteration steps only pay for
    the N x N linear algebra.
    `_pairings` memoizes what the moment and the T-step read, so a state
    costs one geometry pass however many of them ask; it is N x N data and
    a scalar, never a node table, and a new state starts without it.
    """

    model: object
    basis: object
    gram: GramMatrix
    rule: ChartRule
    values: np.ndarray
    jet: np.ndarray
    frame: np.ndarray = None

    @property
    def k(self):
        return self.model.k

    @property
    def count(self):
        return self.basis.count

    @property
    def transform(self):
        return self.gram.whitener()

    @cached_property
    def _pairings(self):
        """Volume, frame pairing and basis pairing from one geometry pass:
        all that `moment_map` and `t_map_step` read."""
        u, _, kk, _, wq = _fs_geometry(self)
        weights = wq / kk
        return (float(wq.sum()), l2_pairing(u, weights),
                l2_pairing(self.values, weights))

    def with_gram(self, gram):
        """The same embedding data under another Gram matrix: basis, rule,
        frame and node tables are shared, and the memo starts empty."""
        return replace(self, gram=_orthonormalizing(gram, self.count))


def _orthonormalizing(gram, count):
    """Validated Gram of a `count`-section family whose whitener, the
    canonical transform, passed the Gram guards and orthonormalizes it to
    1e-9."""
    gm = make_gram(gram)
    if gm.n != count:
        raise ValueError(
            f"Gram size {gm.n} does not match section count {count}")
    transform = gm.whitener()
    defect = np.max(np.abs(
        transform.conj().T @ gm.matrix @ transform - np.eye(gm.n)))
    if not defect <= 1e-9:  # fails closed on NaN
        raise NumericalGuardError(
            f"orthonormalizing transform defect {defect:.2e}; "
            "Gram matrix too ill-conditioned")
    return gm


def embedding_state(model, gram=None, rule=None, metric=None, basis=None,
                    n_radial=14, frame=None):
    """Build an `EmbeddingState`, evaluating the section tables at the rule
    nodes.

    `rule` wins over `metric` (which requests the metric-adapted total rule)
    which wins over the plain product rule at the given radial order.
    `frame` replaces the raw basis by its mixture under an invertible matrix,
    with the Gram then read in the mixed family's own basis.  A state that
    differs only in the Gram comes from `EmbeddingState.with_gram`.
    """
    if basis is None:
        basis = build_section_basis(model)
    if rule is None:
        if metric is not None:
            rule = adapted_total_rule(metric, model, n_radial=n_radial)
        else:
            rule = total_rule(model, n_radial=n_radial)
    if gram is None:
        gram = np.eye(basis.count)
    gm = _orthonormalizing(gram, basis.count)
    values = basis.eval_embedding(rule.points)
    jet = basis.eval_embedding_jet(rule.points)
    if frame is not None:
        frame = np.asarray(frame, dtype=complex)
        if frame.shape != (basis.count, basis.count):
            raise ValueError(
                f"frame shape {frame.shape} does not match section "
                f"count {basis.count}")
        values, jet = _mix(values, jet, frame)
    return EmbeddingState(model=model, basis=basis, gram=gm, rule=rule,
                          values=values, jet=jet, frame=frame)


def _mix(values, jet, mat):
    """Value and jet tables of the section family values @ mat."""
    return values @ mat, np.matmul(mat.T, jet)


def _pullback_data(u, du, dim):
    """Kernel, pulled-back metric coefficients, and reduced volume density
    of a frame table u with holomorphic jets du.

    The pulled-back metric of the embedding by the frame u is
    d d-bar log |u|^2; its coefficient matrix is A/K - b b^H / K^2 with
    K = |u|^2, A_ab = sum_p du_pa conj(du_pb), b_a = sum_p du_pa conj(u_p).
    The reduced density is det times 2^dim / (2 pi)^dim.
    """
    kk = np.einsum("np,np->n", u, np.conj(u)).real
    if not np.all(np.isfinite(kk)) or np.any(kk <= 0.0):
        raise NumericalGuardError("embedding kernel vanished at a node")
    grad = (np.conj(u)[:, None, :] @ du)[:, 0, :]
    amat = np.swapaxes(du, 1, 2) @ np.conj(du)
    gfs = (amat / kk[:, None, None]
           - grad[:, :, None] * np.conj(grad)[:, None, :]
           / (kk ** 2)[:, None, None])
    dens = np.linalg.det(gfs).real * 2.0 ** dim / (2.0 * math.pi) ** dim
    if not np.all(np.isfinite(dens)) or np.any(dens < -1e-12 * max(1.0, dens.max(initial=0.0))):
        raise NumericalGuardError("embedding volume density not nonnegative")
    return kk, gfs, np.maximum(dens, 0.0)


def _fs_geometry(state):
    """Frame values, jets, kernel, pulled-back metric, and the rule weights
    times the reduced volume density, at the rule nodes of a state."""
    u, du = _mix(state.values, state.jet, state.transform)
    kk, gfs, dens = _pullback_data(u, du, state.model.n)
    return u, du, kk, gfs, state.rule.weights * dens


def embedding_form_field(state):
    """Callable evaluating the pulled-back metric coefficient matrix of a
    state's embedding at arbitrary chart points, (n, dim, dim).

    Unlike the cached node tables this re-evaluates the section basis, so
    it supports the shifted points of finite-difference probes."""
    t = state.transform
    basis = state.basis
    frame = state.frame
    dim = state.model.n

    def field(pts):
        pts = np.asarray(pts, dtype=complex)
        # rebinding `table` frees each stage's node tables before the next
        table = basis.eval_embedding(pts), basis.eval_embedding_jet(pts)
        if frame is not None:
            table = _mix(*table, frame)
        table = _mix(*table, t)
        return _pullback_data(*table, dim)[1]

    return field


@dataclass(frozen=True)
class MomentValue:
    """Trace-free L2 defect of an embedding state.

    `matrix` is Hermitian with zero trace; `d` is the balanced pairing value
    volume / count that was subtracted from the diagonal.
    """

    matrix: np.ndarray
    d: float
    volume: float
    norm_op: float
    norm_fro: float

    @property
    def count(self):
        return self.matrix.shape[0]


def moment_map(state):
    """Moment of an embedding state: the orthonormal-frame L2 Gram against
    the pulled-back volume, minus (V/N) times the identity.

    The trace vanishes identically because sum_p |u_p|^2 / K = 1 pointwise,
    so tr(raw) is the volume itself; what remains measures the failure of
    the frame to be orthonormal in its own induced L2 structure.
    """
    vol, raw, _ = state._pairings
    n = state.count
    dval = vol / n
    m = raw - dval * np.eye(n)
    m = 0.5 * (m + m.conj().T)
    eigs = np.linalg.eigvalsh(m)
    return MomentValue(matrix=m, d=dval, volume=vol,
                       norm_op=float(np.max(np.abs(eigs))),
                       norm_fro=float(np.linalg.norm(m)))


def t_map_step(state):
    """One fixed-point update: the next Gram is (N/V) times the L2 pairing
    of the ORIGINAL basis against the current pulled-back volume, then
    det-normalized to 1.

    In the orthonormal frame this reads G_perp -> I + (N/V) M, so fixed
    points are exactly the balanced states; the det gauge removes the
    overall scale the embedding never sees.
    """
    vol, _, raw = state._pairings
    newg = (state.count / vol) * raw
    newg = 0.5 * (newg + newg.conj().T)
    newg /= np.linalg.det(newg).real ** (1.0 / state.count)
    return state.with_gram(newg)


def balanced_density_stats(state):
    """Summary of the state's density against its pulled-back volume: the
    diagonal of the L2-inverse pairing, constant equal to N/V exactly at
    balance.

    Returns mass (the integral, equal to the section count by the trace
    identity under any same-rule pairing), volume, mean, variance, and the
    maximum deviation from the mean.  Variance and deviation measure how
    far the state sits from balance in the pointwise sense."""
    u, _, kk, _, wq = _fs_geometry(state)
    raw = l2_pairing(u, wq / kk)
    raw = 0.5 * (raw + raw.conj().T)
    rho = ((np.conj(u) @ np.linalg.inv(raw).T) * u).sum(axis=1).real / kk
    vol = float(wq.sum())
    mass = float((wq * rho).sum())
    mean = mass / vol
    variance = float((wq * (rho - mean) ** 2).sum() / vol)
    return {
        "mass": mass,
        "volume": vol,
        "mean": mean,
        "variance": variance,
        "max_dev": float(np.max(np.abs(rho - mean))),
    }


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of a balance iteration.

    `trajectory` rows are (iteration, op norm, Frobenius norm) of the moment;
    `converged` holds exactly when the final op norm is below `tolerance`.
    `fallback_steps` counts the Anderson steps whose safeguard took the
    plain T-step instead; it is 0 for the flow solver.
    """

    iterations: int
    trajectory: list
    state: EmbeddingState
    moment: MomentValue
    converged: bool
    diverged: bool
    tolerance: float
    wall_time: float
    fallback_steps: int = 0


def _iterate(state, tol, max_iter, stepper, name):
    """Shared driver: step until the moment op norm drops below `tol`, the
    budget runs out, or the trajectory diverges (ten consecutive norm rises,
    or a numerical guard tripping mid-iteration).  Divergence yields a
    flagged partial report, not an exception."""
    t0 = time.perf_counter()
    trajectory = []
    rises = 0
    prev = math.inf
    diverged = False
    mv = None
    for it in range(max_iter + 1):
        mv = moment_map(state)
        trajectory.append((it, mv.norm_op, mv.norm_fro))
        if mv.norm_op < tol:
            break
        if mv.norm_op > prev:
            rises += 1
            if rises >= 10:
                diverged = True
                logger.warning(
                    "%s diverging: moment norm rose %d consecutive steps "
                    "(%.3e at iteration %d)", name, rises, mv.norm_op, it)
                break
        else:
            rises = 0
        prev = mv.norm_op
        if it == max_iter:
            break
        try:
            state = stepper(state)
        except NumericalGuardError as exc:
            diverged = True
            logger.warning(
                "%s left the trustworthy region at iteration %d: %s",
                name, it, exc)
            break
    converged = bool(trajectory[-1][1] < tol)
    report = BalanceReport(
        iterations=len(trajectory) - 1, trajectory=trajectory, state=state,
        moment=mv, converged=converged, diverged=diverged, tolerance=tol,
        wall_time=time.perf_counter() - t0)
    logger.debug("%s: %d iterations, final norm %.3e, converged=%s",
                 name, report.iterations, trajectory[-1][1], converged)
    return report


def balance_iterate(state, tol=1e-8, max_iter=500):
    """Drive the fixed-point update until the moment op norm drops below
    `tol`, the iteration budget runs out, or the trajectory diverges.
    Divergence yields a flagged partial report, not an exception.

    Each step mixes the recent T-map images (`_AndersonMixer`) and falls
    back to the plain `t_map_step` when the mix does not help."""
    mixer = _AndersonMixer()
    report = _iterate(state, tol, max_iter, mixer,
                      "Anderson balance iteration")
    return replace(report, fallback_steps=mixer.fallbacks)


# the Anderson mixer combines the last this many plain T-map images
_ANDERSON_MEMORY = 5


def _traceless_log(gram):
    """Traceless Hermitian log of a positive Gram: the log of its
    det-normalized rescaling."""
    w, v = np.linalg.eigh(gram)
    logw = np.log(w)
    return (v * (logw - logw.mean())[None, :]) @ v.conj().T


def _anderson_mix(xs, gs):
    """Type-II Anderson combination of iterates `xs` and their images `gs`
    (stacks of Hermitian matrices, oldest first): g_last - dG gamma, with
    gamma the least-squares solution of dF gamma = f_last, f = g - x, in
    the Frobenius norm (dF, dG the consecutive differences)."""
    fs = gs - xs
    # real coordinates of the Hermitian residuals: Frobenius geometry with
    # real mixing coefficients, so the mixed matrix stays Hermitian
    dfs = np.diff(fs, axis=0).reshape(len(fs) - 1, -1)
    gamma = np.linalg.lstsq(dfs.view(float).T, fs[-1].reshape(-1).view(float),
                            rcond=None)[0]
    x = gs[-1] - np.tensordot(gamma, np.diff(gs, axis=0), axes=1)
    return 0.5 * (x + x.conj().T)


class _AndersonMixer:
    """Type-II Anderson acceleration of the T-map (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011), one call per iteration like a plain stepper.

    The iterate is X = `_traceless_log` of the Gram and the map is
    g(X) = log T(exp X); the step mixes the last `_ANDERSON_MEMORY` pairs
    (X_i, g(X_i)) with `_anderson_mix`, and is the plain T-step while
    fewer than two pairs are held.  Safeguard: the mixed state is taken
    only when its moment op norm does not exceed the current one; a rise
    or a tripped guard takes the plain T-step instead, counts a fallback
    and clears the history.  The mixed state's memo then serves the next
    moment, so an accepted step costs one geometry pass and a fallback
    two.  Each call makes exactly one `t_map_step`."""

    def __init__(self):
        self.xs = []
        self.gs = []
        self.fallbacks = 0

    def __call__(self, state):
        plain = t_map_step(state)
        self.xs.append(_traceless_log(state.gram.matrix))
        self.gs.append(_traceless_log(plain.gram.matrix))
        del self.xs[:-_ANDERSON_MEMORY], self.gs[:-_ANDERSON_MEMORY]
        if len(self.xs) < 2:
            return plain
        x = _anderson_mix(np.stack(self.xs), np.stack(self.gs))
        try:
            # an overflowing exp leaves a non-finite Gram, which the
            # guards reject
            with np.errstate(over="ignore", invalid="ignore"):
                gram = _exp_hermitian(x, 1.0)
            cand = state.with_gram(gram)
            accepted = moment_map(cand).norm_op <= moment_map(state).norm_op
        except NumericalGuardError:
            accepted = False
        if accepted:
            return cand
        self.fallbacks += 1
        self.xs.clear()
        self.gs.clear()
        return plain


def flow_iterate(state, tol=1e-8, max_iter=500, step=1.0):
    """Drive the line-searched descent until the moment op norm drops below
    `tol`, with the same divergence bookkeeping as the fixed-point driver.
    A line-search underflow counts as divergence."""
    return _iterate(state, tol, max_iter,
                    lambda s: gradient_flow_step(s, step), "descent flow")


def _exp_hermitian(mat, scale):
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(scale * w)[None, :]) @ v.conj().T


def gradient_flow_step(state, step):
    """One descent step along the moment direction with a halving line
    search.

    The orthonormal frame moves by exp(-s M), so the Gram update is
    G -> inv(T exp(-2 s M) T^H) with T the current transform, det-gauged.
    The step is halved until the Frobenius norm of the moment strictly
    decreases; exhausting the search raises a numerical guard, since a
    stationary nonzero moment means the quadrature cannot resolve the
    descent."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    mv = moment_map(state)
    if mv.norm_op < 1e-13 * max(1.0, abs(mv.d)):
        return state
    base = mv.norm_fro
    s = float(step)
    t = state.transform
    while s > step * 1e-14:
        a2 = _exp_hermitian(mv.matrix, -2.0 * s)
        newg = np.linalg.inv(t @ a2 @ t.conj().T)
        newg = 0.5 * (newg + newg.conj().T)
        newg /= np.linalg.det(newg).real ** (1.0 / state.count)
        cand = state.with_gram(newg)
        if moment_map(cand).norm_fro < base:
            return cand
        s *= 0.5
    raise NumericalGuardError(
        "line-search step underflow: moment norm does not decrease along "
        "the descent direction")


# ---------------------------------------------------------------------------
# action fields and their normal spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaZOperator:
    """Gram matrix of the normal components of the su(N) action fields.

    q_matrix[a, b] = integral of <pi_N(xi_a u), pi_N(xi_b u)> / |u|^2 against
    the pulled-back volume; `skipped` counts nodes where the embedding jet
    dropped rank and no normal projection exists.
    """

    q_matrix: np.ndarray
    generators: np.ndarray
    skipped: int
    samples: int
    volume: float


def sigma_z_operator(state, generators=None):
    """Integrate the squared normal parts of the generator action fields.

    At each node the tangent space of the image is spanned by the jet
    columns projected off the cone direction u; the field of a Hermitian
    generator xi is xi u, projected off the cone and the tangent frame and
    normalized by |u|.  With P the normal projector I - u u^H / K - U U^H
    (U an orthonormal tangent frame, K = |u|^2) the integrand is
    (xi_a u)^H P (xi_b u) / K, so Q is a fixed contraction of one
    N^2 x N^2 matrix M = sum_n (w_n / K_n) P_n (x) conj(u_n) u_n^T with
    the flattened generators, and no field is ever formed.  Rank-deficient
    nodes (branch points of the chosen sub-system) get weight zero, with a
    warning."""
    gens = su_basis(state.count) if generators is None else np.asarray(generators)
    u, du, kk, _, wq = _fs_geometry(state)
    nodes, nn = u.shape
    grad = (np.conj(u)[:, None, :] @ du)[:, 0, :]
    tang = du - u[:, :, None] * (grad / kk[:, None])[:, None, :]
    # batched orthonormal frames for the tangent columns
    uf, sv, _ = np.linalg.svd(tang, full_matrices=False)
    smax = sv[:, 0]
    valid = sv[:, -1] > 1e-12 * np.maximum(smax, 1e-30)
    skipped = int(np.count_nonzero(~valid))
    if skipped:
        logger.warning(
            "sigma_z_operator: skipped %d node(s) with rank-deficient "
            "embedding jet", skipped)
    wq_valid = np.where(valid, wq, 0.0)
    scale = wq_valid / kk
    proj = uf @ np.conj(np.swapaxes(uf, 1, 2))
    proj += u[:, :, None] * (np.conj(u) / kk[:, None])[:, None, :]
    proj *= -scale[:, None, None]
    proj[:, np.arange(nn), np.arange(nn)] += scale[:, None]
    cone = np.conj(u)[:, :, None] * u[:, None, :]
    # M[(j, k), (i, l)] = sum_n scale_n P_njk conj(u_ni) u_nl, then Q_ab =
    # sum conj(xi_a[j, i]) M[(j, k), (i, l)] xi_b[k, l]
    m = proj.reshape(nodes, nn * nn).T @ cone.reshape(nodes, nn * nn)
    m = m.reshape(nn, nn, nn, nn).transpose(0, 2, 1, 3).reshape(
        nn * nn, nn * nn)
    flat = gens.reshape(gens.shape[0], nn * nn)
    q = np.conj(flat) @ m @ flat.T
    q = 0.5 * (q + q.conj().T)
    return SigmaZOperator(q_matrix=q, generators=gens, skipped=skipped,
                          samples=int(np.count_nonzero(valid)),
                          volume=float(wq_valid.sum()))


@dataclass(frozen=True)
class EigEstimate:
    """Smallest positive eigenvalue of a normal-spectrum operator.

    `smallest` is 0.0 when the operator vanishes (full linear systems);
    `lambda_z` is its reciprocal with the same zero sentinel.
    """

    smallest: float
    kernel_dim: int
    dimension: int
    samples: int
    k: int

    @property
    def lambda_z(self):
        return 1.0 / self.smallest if self.smallest > 0.0 else 0.0


def eig_estimate(op, k):
    """Split the spectrum of Q_z into kernel and positive part.

    Eigenvalues below 1e-8 times the largest one count as kernel
    (stabilizer directions of the embedded image); the smallest survivor
    is the quantity whose reciprocal grows along k-sweeps.
    """
    eigs = np.linalg.eigvalsh(op.q_matrix)
    scale = float(eigs[-1]) if eigs.size else 0.0
    # absolute floor: the generators are trace-orthonormal and the fields
    # |u|-normalized, so a genuinely nonzero operator has eigenvalues on
    # the scale of the volume; anything below roundoff of that is zero
    if scale <= 1e-12 * max(1.0, op.volume):
        return EigEstimate(smallest=0.0, kernel_dim=int(eigs.size),
                           dimension=int(eigs.size), samples=op.samples,
                           k=int(k))
    positive = eigs[eigs > 1e-8 * scale]
    kernel_dim = int(eigs.size - positive.size)
    smallest = float(positive[0]) if positive.size else 0.0
    return EigEstimate(smallest=smallest, kernel_dim=kernel_dim,
                       dimension=int(eigs.size), samples=op.samples,
                       k=int(k))


def lambda_fit_exponent(ks, lambda_values):
    """Log-log growth slope of positive lambda values over their levels.

    Levels with nonpositive lambda (the 0.0 kernel sentinel) are excluded;
    the slope is NaN when fewer than two levels remain.
    """
    usable = [(float(k), float(lam)) for k, lam in zip(ks, lambda_values)
              if lam > 0.0]
    if len(usable) < 2:
        return float("nan")
    lk = np.log([k for k, _ in usable])
    ll = np.log([lam for _, lam in usable])
    return float(np.polyfit(lk, ll, 1)[0])


# ---------------------------------------------------------------------------
# acceptance gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RBoundedReport:
    """Two-sided comparability of a metric field against a reference.

    `margins` = (r_bound - c_a_norm, min_ratio - 1/r_bound): both must be
    nonnegative for the candidate to lie in the R-bounded set.
    """

    passes: bool
    c_a_norm: float
    min_ratio: float
    margins: tuple
    order: int
    nodes: int


# r_bounded_check bounds derivatives up to this order (the R-bounded set is
# a C^4 condition), by central differences of this step
_COMPARABILITY_ORDER = 4
_COMPARABILITY_STEP = 5e-2

# r_bounded_check splits the shifted points into the fewest equal blocks
# of at most this many points (one offset per block at more nodes): the
# field builds node tables for every point of a call, and one call on the
# whole stencil raised the balance run's peak memory by about 9%
_STENCIL_BLOCK_POINTS = 1024


@lru_cache(maxsize=None)
def _comparability_stencil(d, order):
    """Lattice offsets and integer weights of every nested central
    difference up to `order` along the 2d real directions of C^d.

    Direction 2a is Re z_a and 2a+1 is Im z_a.  Mixed central differences
    commute, so one row per multiset of directions suffices; a row holds
    the expanded product of (S_dir - S_dir^-1) over the multiset, S the unit
    lattice shift, to be divided by (2h)^level.  Returns the complex offsets
    (n_offsets, d), the weight matrix (n_multisets, n_offsets) and the
    level of each row; row 0 is the empty multiset (the field itself)."""
    rows = []
    for level in range(order + 1):
        for dirs in itertools.combinations_with_replacement(range(2 * d),
                                                            level):
            terms = {(0,) * (2 * d): 1}
            for axis in dirs:
                shifted = defaultdict(int)
                for off, c in terms.items():
                    for sign in (1, -1):
                        moved = list(off)
                        moved[axis] += sign
                        shifted[tuple(moved)] += sign * c
                terms = shifted
            rows.append((level, {off: c for off, c in terms.items() if c}))
    lattice = sorted({off for _, terms in rows for off in terms})
    index = {off: i for i, off in enumerate(lattice)}
    weights = np.zeros((len(rows), len(lattice)))
    for i, (_, terms) in enumerate(rows):
        for off, c in terms.items():
            weights[i, index[off]] = c
    steps = np.array(lattice, dtype=float)
    offsets = steps[:, 0::2] + 1j * steps[:, 1::2]
    levels = np.array([level for level, _ in rows])
    for arr in (offsets, weights, levels):
        arr.flags.writeable = False
    return offsets, weights, levels


def r_bounded_check(candidate, reference, pts, r_bound):
    """Check that `candidate` stays within a two-sided C^4 bound of
    `reference` at the given nodes.

    Both arguments are callables mapping (n, d) complex points to (n, m, m)
    coefficient matrices.  The difference field is central-differenced up
    to order `_COMPARABILITY_ORDER` (4) along every real coordinate
    direction, step h = `_COMPARABILITY_STEP` (5e-2), and each
    derivative is measured in the reference-whitened operator norm with one
    factor of ||g0^{-1/2}|| per derivative index; `c_a_norm` is the largest
    such norm over the nodes and derivatives.  The lower bound `min_ratio`
    is the smallest eigenvalue of the whitened candidate over the nodes.

    Every difference reads the lattice pts + h * offsets of
    `_comparability_stencil` (321 offsets for d = 2 and order 4): each
    field is evaluated there once, in equal blocks of at most
    `_STENCIL_BLOCK_POINTS` points, plus once at the nodes, and all
    derivatives come out of one contraction with the stencil weights.  One
    derivative per multiset of directions is measured; the nested
    differences of its orderings agree in exact arithmetic.
    """
    if r_bound <= 1.0:
        raise ValueError(f"bound must exceed 1, got {r_bound}")
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError(
            f"pts must be a 2-D array (nodes, d) with at least one row and "
            f"one column, got shape {pts.shape}")
    n, d = pts.shape
    g0 = np.asarray(reference(pts))
    w0eigs, w0vecs = np.linalg.eigh(g0)
    if np.any(w0eigs <= 0.0):
        raise NumericalGuardError("reference metric not positive at a node")
    w0 = (w0vecs / np.sqrt(w0eigs)[:, None, :]) @ np.swapaxes(
        w0vecs.conj(), -1, -2)
    dirweight = 1.0 / np.sqrt(w0eigs[:, 0])

    order, h = _COMPARABILITY_ORDER, _COMPARABILITY_STEP
    offsets, weights, levels = _comparability_stencil(d, order)
    blocks = -(-len(offsets) * n // _STENCIL_BLOCK_POINTS)
    per_block = -(-len(offsets) // blocks)
    table = np.empty((len(offsets),) + g0.shape, dtype=complex)
    for start in range(0, len(offsets), per_block):
        shifted = (pts[None, :, :] + h * offsets[start:start + per_block,
                                                 None, :]).reshape(-1, d)
        diff = np.asarray(candidate(shifted)) - np.asarray(reference(shifted))
        table[start:start + per_block] = diff.reshape((-1,) + g0.shape)
    # real weights against the real view: no complex copy of the weights
    derivs = (weights @ table.reshape(len(offsets), -1).view(float)).view(
        complex).reshape((len(weights),) + g0.shape)
    derivs /= (2.0 * h) ** levels[:, None, None, None]
    norms = np.linalg.svd(w0 @ derivs @ w0, compute_uv=False)[..., 0]
    c_a = float(np.max(norms * dirweight ** levels[:, None]))

    gc = np.asarray(candidate(pts))
    wcand = np.einsum("nab,nbc,ncd->nad", w0, gc, w0)
    wcand = 0.5 * (wcand + np.swapaxes(wcand.conj(), -1, -2))
    min_ratio = float(np.min(np.linalg.eigvalsh(wcand)[:, 0]))
    margins = (r_bound - c_a, min_ratio - 1.0 / r_bound)
    return RBoundedReport(passes=bool(margins[0] >= 0.0 and margins[1] >= 0.0),
                          c_a_norm=c_a, min_ratio=min_ratio, margins=margins,
                          order=order, nodes=int(n))


@dataclass(frozen=True)
class OrderVerdict:
    """Decay-order classification of a moment sequence."""

    passes: bool
    fitted_order: float
    d_defect: float
    order_target: float


def almost_balanced_check(entries, q, expected_d=None, d_tol=1e-8):
    """Classify a sequence of (k, moment) pairs as almost balanced to
    order q.

    Requires at least three levels.  The pairing values D must match
    volume/count (or the supplied expectations) to d_tol; the op norms must
    decay at fitted order at least q + 1 - 0.3 in a log-log fit.  An exactly
    vanishing sequence (norms below 1e-12) passes every order.
    """
    entries = list(entries)
    if len(entries) < 3:
        raise ValueError(
            f"order fit needs at least three levels, got {len(entries)}")
    ks = np.array([float(k) for k, _ in entries])
    if np.unique(ks).size != ks.size:
        raise ValueError("duplicate levels in the moment sequence")
    norms = np.array([mv.norm_op for _, mv in entries])
    if expected_d is None:
        defects = [abs(mv.d - mv.volume / mv.count) for _, mv in entries]
    else:
        expected_d = list(expected_d)
        if len(expected_d) != len(entries):
            raise ValueError("expected_d length does not match entries")
        defects = [abs(mv.d - want)
                   for (_, mv), want in zip(entries, expected_d)]
    d_defect = float(max(defects))
    d_ok = d_defect <= d_tol
    if norms.max() < 1e-12:
        return OrderVerdict(passes=d_ok, fitted_order=math.inf,
                            d_defect=d_defect, order_target=float(q + 1))
    fitted = float(-np.polyfit(np.log(ks), np.log(np.maximum(norms, 1e-300)),
                               1)[0])
    passes = d_ok and fitted >= q + 1.0 - 0.3
    return OrderVerdict(passes=passes, fitted_order=fitted,
                        d_defect=d_defect, order_target=float(q + 1))
