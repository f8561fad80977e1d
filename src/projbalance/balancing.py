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
* `embedding_state` bundles a model, a section basis, a Gram matrix with its
  orthonormalizing transform, a quadrature rule, and cached section values,
  so the iteration loops never re-evaluate monomial tables;
* `moment_map` integrates the frame pairings against the pulled-back volume
  and subtracts the balanced value V/N;
* `t_map_step` and `gradient_flow_step` are the two solvers: the fixed-point
  update G -> (N/V) <s_i, s_j> and the line-searched exponential descent
  along the moment direction.  `balance_iterate` and `flow_iterate` drive
  them with shared divergence detection; `balanced_density` and
  `balanced_density_stats` evaluate the density whose constancy certifies
  the result, and `embedding_form_field` exposes the pulled-back metric at
  arbitrary points for comparability probes;
* `sigma_z_operator` integrates squared normal components of the su(N)
  action fields; `eig_estimate` and `lambda_z_scaling` extract its smallest
  positive eigenvalue and its growth exponent along a k-sweep;
* `r_bounded_check` and `almost_balanced_check` are the acceptance gates:
  two-sided comparability of a metric against a reference, and decay-order
  classification of a moment sequence.

Each geometric quantity has one routine.  `_pullback_data` is the package's
only pull-back formula (the metric d d-bar log |u|^2 of a frame table and
its volume density); `_fs_geometry` applies it at the rule nodes and
`embedding_form_field` at arbitrary points.  `_l2_pairing` is the only L2
pairing of a node table against the pulled-back volume; the moment pairs
the frame, the T-step the raw basis values, and the density the frame
again.

All volumes are reduced by (2 pi)^dim as elsewhere in the package.
"""

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .bergman import adapted_total_rule
from .errors import NumericalGuardError
from .metrics import GramMatrix, make_gram
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
    "balanced_density",
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
    "LambdaTable",
    "lambda_fit_exponent",
    "lambda_z_scaling",
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
    is the identity.  `values` and `jet` are the basis tables at the rule
    nodes, cached so iteration steps only pay for the N x N linear algebra.
    """

    model: object
    basis: object
    gram: GramMatrix
    transform: np.ndarray
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


def embedding_state(model, gram=None, rule=None, metric=None, basis=None,
                    n_radial=14, state_cache=None, frame=None):
    """Build an `EmbeddingState`, reusing cached section tables when possible.

    `rule` wins over `metric` (which requests the metric-adapted total rule)
    which wins over the plain product rule at the given radial order.
    `frame` replaces the raw basis by its mixture under an invertible matrix,
    with the Gram then read in the mixed family's own basis.  `state_cache`
    donates its basis, rule, frame, and value tables to a new state that
    differs only in the Gram matrix, the common case inside solvers.
    """
    if state_cache is not None:
        if basis is None:
            basis = state_cache.basis
        if rule is None:
            rule = state_cache.rule
        if frame is None:
            frame = state_cache.frame
    if basis is None:
        basis = build_section_basis(model)
    if rule is None:
        if metric is not None:
            rule = adapted_total_rule(metric, model, n_radial=n_radial)
        else:
            rule = total_rule(model, n_radial=n_radial)
    if gram is None:
        gram = np.eye(basis.count)
    gm = make_gram(gram)
    if gm.n != basis.count:
        raise ValueError(
            f"Gram size {gm.n} does not match section count {basis.count}")
    gm.whitener()  # positivity and conditioning guards
    # canonical choice: the Hermitian inverse root, so the transform itself
    # carries no arbitrary unitary freedom
    w, vv = np.linalg.eigh(gm.matrix)
    transform = (vv / np.sqrt(w)[None, :]) @ vv.conj().T
    defect = np.max(np.abs(
        transform.conj().T @ gm.matrix @ transform - np.eye(gm.n)))
    if defect > 1e-9:
        raise NumericalGuardError(
            f"orthonormalizing transform defect {defect:.2e}; "
            "Gram matrix too ill-conditioned")
    if (state_cache is not None and state_cache.basis is basis
            and state_cache.rule is rule and state_cache.frame is frame):
        values, jet = state_cache.values, state_cache.jet
    else:
        values = basis.eval_embedding(rule.points)
        jet = basis.eval_embedding_jet(rule.points)
        if frame is not None:
            frame = np.asarray(frame, dtype=complex)
            if frame.shape != (basis.count, basis.count):
                raise ValueError(
                    f"frame shape {frame.shape} does not match section "
                    f"count {basis.count}")
            values, jet = _mix(values, jet, frame)
    return EmbeddingState(model=model, basis=basis, gram=gm,
                          transform=transform, rule=rule,
                          values=values, jet=jet, frame=frame)


def _mix(values, jet, mat):
    """Value and jet tables of the section family values @ mat."""
    return values @ mat, np.einsum("npd,pq->nqd", jet, mat)


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
    grad = np.einsum("npa,np->na", du, np.conj(u))
    amat = np.einsum("npa,npb->nab", du, np.conj(du))
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


def _l2_pairing(table, kk, wq):
    """L2 pairing of the columns of a node table against the pulled-back
    volume: sum_n (wq_n / K_n) conj(table_np) table_nq, with K the kernel
    and wq the weighted density returned by `_fs_geometry`."""
    return np.einsum("n,np,nq->pq", wq / kk, np.conj(table), table)


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
        vals = basis.eval_embedding(pts)
        jet = basis.eval_embedding_jet(pts)
        if frame is not None:
            vals, jet = _mix(vals, jet, frame)
        _, gfs, _ = _pullback_data(*_mix(vals, jet, t), dim)
        return gfs

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


def moment_map(state, rule=None):
    """Moment of an embedding state: the orthonormal-frame L2 Gram against
    the pulled-back volume, minus (V/N) times the identity.

    The trace vanishes identically because sum_p |u_p|^2 / K = 1 pointwise,
    so tr(raw) is the volume itself; what remains measures the failure of
    the frame to be orthonormal in its own induced L2 structure.
    """
    if rule is not None and rule is not state.rule:
        state = embedding_state(state.model, gram=state.gram.matrix,
                                rule=rule, basis=state.basis)
    u, _, kk, _, wq = _fs_geometry(state)
    vol = float(wq.sum())
    raw = _l2_pairing(u, kk, wq)
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
    _, _, kk, _, wq = _fs_geometry(state)
    vol = float(wq.sum())
    raw = _l2_pairing(state.values, kk, wq)
    newg = (state.count / vol) * raw
    newg = 0.5 * (newg + newg.conj().T)
    newg /= np.linalg.det(newg).real ** (1.0 / state.count)
    return embedding_state(state.model, gram=newg, state_cache=state)


def _density_and_weights(state):
    """Balanced density at the rule nodes and the weighted volume density
    it is integrated against, from one geometry pass."""
    u, _, kk, _, wq = _fs_geometry(state)
    raw = _l2_pairing(u, kk, wq)
    raw = 0.5 * (raw + raw.conj().T)
    rho = np.einsum("pq,nq,np->n", np.linalg.inv(raw), np.conj(u), u).real
    return rho / kk, wq


def balanced_density(state):
    """Density of the state against its own pulled-back volume: the diagonal
    of the L2-inverse pairing, constant equal to N/V exactly at balance."""
    return _density_and_weights(state)[0]


def balanced_density_stats(state):
    """Summary of the state's density against its pulled-back volume.

    Returns mass (the integral, equal to the section count by the trace
    identity under any same-rule pairing), volume, mean, variance, and the
    maximum deviation from the mean.  Variance and deviation measure how
    far the state sits from balance in the pointwise sense."""
    rho, wq = _density_and_weights(state)
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
    """

    iterations: int
    trajectory: list
    state: EmbeddingState
    moment: MomentValue
    converged: bool
    diverged: bool
    tolerance: float
    wall_time: float

    @property
    def final_gram(self):
        return self.state.gram.matrix


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
    Divergence yields a flagged partial report, not an exception."""
    return _iterate(state, tol, max_iter, lambda s: t_map_step(s),
                    "balance iteration")


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
        cand = embedding_state(state.model, gram=newg, state_cache=state)
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
    normalized by |u|.  Rank-deficient nodes (branch points of the chosen
    sub-system) are skipped with a warning."""
    gens = su_basis(state.count) if generators is None else np.asarray(generators)
    u, du, kk, _, wq = _fs_geometry(state)
    grad = np.einsum("npa,np->na", du, np.conj(u))
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
    fields = np.einsum("gpq,nq->gnp", gens, u)
    cone = np.einsum("gnp,np->gn", fields, np.conj(u)) / kk[None, :]
    fields = fields - cone[:, :, None] * u[None, :, :]
    coef = np.einsum("gnp,npj->gnj", fields, np.conj(uf))
    fields = fields - np.einsum("gnj,npj->gnp", coef, uf)
    fields = fields / np.sqrt(kk)[None, :, None]
    wq_valid = np.where(valid, wq, 0.0)
    q = np.einsum("n,gnp,hnp->gh", wq_valid, np.conj(fields), fields)
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


def eig_estimate(op, k, kernel_tol=1e-8):
    """Split the spectrum of Q_z into kernel and positive part.

    Eigenvalues below kernel_tol times the largest one count as kernel
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
    positive = eigs[eigs > kernel_tol * scale]
    kernel_dim = int(eigs.size - positive.size)
    smallest = float(positive[0]) if positive.size else 0.0
    return EigEstimate(smallest=smallest, kernel_dim=kernel_dim,
                       dimension=int(eigs.size), samples=op.samples,
                       k=int(k))


@dataclass(frozen=True)
class LambdaTable:
    """Per-level spectral estimates along a k-sweep and the log-log growth
    exponent of lambda_z over the levels where it is positive."""

    ks: tuple
    estimates: tuple
    exponent: float


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


def lambda_z_scaling(model, ks, n_radial=12, tol=1e-9, max_iter=400):
    """Balance the model at each level k and tabulate 1 / min-eig(Q_z).

    Needs at least three levels for the growth fit.  Levels where the
    operator vanishes identically (full linear systems) enter the table
    with the 0.0 sentinel and are excluded from the fit.
    """
    ks = tuple(int(k) for k in ks)
    if len(ks) < 3:
        raise ValueError(
            f"k grid needs at least three levels for a growth fit, got {ks}")
    estimates = []
    for k in ks:
        mk = replace(model, k=k)
        state = embedding_state(mk, n_radial=n_radial)
        report = balance_iterate(state, tol=tol, max_iter=max_iter)
        if not report.converged:
            logger.warning(
                "lambda_z_scaling: k=%d stopped at moment norm %.3e "
                "(tolerance %.1e)", k, report.trajectory[-1][1], tol)
        op = sigma_z_operator(report.state)
        est = eig_estimate(op, k)
        estimates.append(est)
        logger.debug("lambda_z_scaling: k=%d lambda=%.6e kernel=%d",
                     k, est.lambda_z, est.kernel_dim)
    exponent = lambda_fit_exponent(ks, [e.lambda_z for e in estimates])
    return LambdaTable(ks=ks, estimates=tuple(estimates), exponent=exponent)


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


def _directional_fd(fn, direction, h):
    def diff(pts):
        return (fn(pts + h * direction) - fn(pts - h * direction)) / (2.0 * h)
    return diff


def r_bounded_check(candidate, reference, pts, r_bound, order=4, h=5e-2):
    """Check that `candidate` stays within a two-sided C^order bound of
    `reference` at the given nodes.

    Both arguments are callables mapping (n, d) complex points to (n, m, m)
    coefficient matrices.  The difference field is finite-differenced up to
    `order` along every real coordinate direction; each derivative level is
    measured in the reference-whitened operator norm with one factor of
    ||g0^{-1/2}|| per derivative index.  The lower bound is the smallest
    eigenvalue of the whitened candidate over the nodes.
    """
    if order < 4:
        raise ValueError(
            f"comparability needs derivative order >= 4, got {order}")
    if r_bound <= 1.0:
        raise ValueError(f"bound must exceed 1, got {r_bound}")
    pts = np.asarray(pts, dtype=complex)
    d = pts.shape[1]
    g0 = np.asarray(reference(pts))
    w0eigs, w0vecs = np.linalg.eigh(g0)
    if np.any(w0eigs <= 0.0):
        raise NumericalGuardError("reference metric not positive at a node")
    w0 = (w0vecs / np.sqrt(w0eigs)[:, None, :]) @ np.swapaxes(
        w0vecs.conj(), -1, -2)
    dirweight = 1.0 / np.sqrt(w0eigs[:, 0])

    def whitened_opnorm(vals):
        sand = np.einsum("nab,nbc,ncd->nad", w0, np.asarray(vals), w0)
        return np.linalg.svd(sand, compute_uv=False)[:, 0]

    def delta(p):
        return np.asarray(candidate(p)) - np.asarray(reference(p))

    directions = []
    for a in range(d):
        e = np.zeros(d, dtype=complex)
        e[a] = 1.0
        directions.append(e.copy())
        directions.append(1j * e)
    c_a = float(np.max(whitened_opnorm(delta(pts))))
    fns = [delta]
    for level in range(1, order + 1):
        fns = [_directional_fd(f, direction, h)
               for f in fns for direction in directions]
        for f in fns:
            node_norms = whitened_opnorm(f(pts)) * dirweight ** level
            c_a = max(c_a, float(np.max(node_norms)))
    gc = np.asarray(candidate(pts))
    wcand = np.einsum("nab,nbc,ncd->nad", w0, gc, w0)
    wcand = 0.5 * (wcand + np.swapaxes(wcand.conj(), -1, -2))
    min_ratio = float(np.min(np.linalg.eigvalsh(wcand)[:, 0]))
    margins = (r_bound - c_a, min_ratio - 1.0 / r_bound)
    return RBoundedReport(passes=bool(margins[0] >= 0.0 and margins[1] >= 0.0),
                          c_a_norm=c_a, min_ratio=min_ratio, margins=margins,
                          order=int(order), nodes=int(pts.shape[0]))


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
