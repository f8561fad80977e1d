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
  quadrature rule, and the basis tables at the rule nodes;
  `EmbeddingState.transform` is derived from the Gram, and
  `EmbeddingState.with_gram` derives a state with another Gram that shares
  every table, so the iteration loops never re-evaluate monomial tables;
  every state validates itself, however it is made;
* `moment_map` integrates the frame pairings against the pulled-back volume
  and subtracts the balanced value V/N;
* `t_map_step` is the fixed-point update G -> (N/V) <s_i, s_j>;
  `balance_iterate` balances a torus state by Newton steps against the
  charge-0 block of `sigma_z_operator` (`_NewtonStepper`), and any other
  state, which only the tests build, by the plain T-iteration.
  `flow_iterate`, line-searched descent along the moment
  (`gradient_flow_step`), is a second route the tests cross-check.
  `balanced_density_stats` evaluates the density whose constancy
  certifies the result, and `embedding_form_field` the pulled-back
  metric at arbitrary points;
* `sigma_z_operator` integrates the squared normal components of the
  su(N) action fields without forming them, as Hermitian blocks in the
  matrix-unit basis E_ji (`_node_sum`; one real block per torus charge
  at a torus state, `_charge_blocks`); `eig_estimate` extracts the
  smallest positive eigenvalue of their spectra less the identity's
  zero, and `lambda_fit_exponent` the growth exponent of its reciprocal
  along a k-sweep (`suites.spectrum_job`);
* `torus_orbit_rule` serves torus-invariant states, whose Gram is
  diagonal in the monomial basis: one node per torus orbit, at angle 0
  with the orbit's weight, exact because every integrand entry carries
  one torus character (derived in its docstring).  A state on its
  `OrbitRule` is a `torus` state, whose Gram is N weights
  (`metrics.DiagonalGram`); `torus_invariance_guard` checks a matrix
  before a torus state keeps its diagonal, and `torus_rule_check`
  re-integrates a torus state on three of its orbits, each on its full
  angular grid (sized by D = `torus_degree`);
* `r_bounded_check` and `almost_balanced_check` are the acceptance gates:
  two-sided comparability of the embedding form of a state against that
  of a reference state, and decay-order classification of a moment
  sequence.  The comparability check reads every derivative it bounds
  from exact Taylor jets (`_form_derivatives`: the sections' binomial
  shifts, `SectionBasis.eval_taylor`, in the state's frame, through
  `kahler.log_kernel_jet`), and holds their order-0 term to the form
  field at the nodes.

Each geometric quantity has one routine.  `_pullback_data` is the package's
only pull-back formula: from the kernel K = |u|^2 of a frame u, its
gradient and its jet pairing it forms the metric d d-bar log |u|^2, its
volume density and both guards.  `_frame_sums` takes those row sums over
the N sections of a frame table, for `_fs_geometry` at the rule nodes and
`embedding_form_field` at arbitrary points; a torus state reads them off
its `_table`.  `metrics.l2_pairing`, or its diagonal for a torus state, is
the only L2 pairing against the pulled-back volume: the moment pairs the
frame, the T-step the raw basis values, and the density the frame again.

The geometry kernel works on one order-major table per point set, the
1-jet (1 + dim, n, N) of `SectionBasis.eval_embedding_jet`: row 0 the
values, then one row per holomorphic direction, binomial shifts of one
power table of the points, so no table takes a complex power.  The
Gram's `frame` moves it to the orthonormal frame at once.  The
determinant and `r_bounded_check`'s norms, eigenvalues and root are
`kahler`'s kernels.  Both operator kernels, the general path's node sum
and a torus state's charge blocks, take their tangent projector and rank
decision from one per-node frame (`_normal_frame`: a Householder QR of the
tangent columns, `_tangent_frame`).

A torus state factors no Gram and makes no `_fs_geometry` pass: its Gram
is its weights c, and K, its gradient and the jet pairing are linear in
1/c, so one table of section-jet products per rule (`_table`, shared by
every `with_gram` copy) gives them in one GEMV (`_torus_geometry`), and
the raw pairing diagonal and the density |s_p|^2 in a second.  The frame
pairing is that diagonal times 1/c, the moment the frame pairing less
V/N (its own spectrum), and every block of Q_E, Newton's Q_0 among them,
one real batched product on the real tangent frame of the orbit nodes
(`_charge_blocks`).  Any other Gram is factored once, by its
`GramMatrix`: the guards and the whitener read one `eigh`, the det gauge
is one LU and the moment one `eigvalsh`.

A state's memo keeps, read-only, its `MomentValue`, both pairings and
their node tables: `_fs_geometry`'s, or at a torus state
`_torus_geometry`.

All volumes are reduced by (2 pi)^dim as elsewhere in the package.
"""

import logging
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bergman import adapted_total_rule
from .errors import NumericalGuardError
from .kahler import (hermitian_det, hermitian_norm, inverse_sqrt, jet_tables,
                     log_kernel_jet, smallest_eigenvalue)
from .metrics import DiagonalGram, GramMatrix, l2_pairing, make_gram
from .quadrature import ChartRule, product_rule
from .sections import base_rule, build_section_basis, fiber_rule, total_rule

logger = logging.getLogger(__name__)

__all__ = [
    "su_basis",
    "EmbeddingState",
    "embedding_state",
    "torus_degree",
    "OrbitRule",
    "torus_orbit_rule",
    "torus_invariance_guard",
    "torus_check_angles",
    "torus_rule_check",
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
        column = np.zeros(n, dtype=complex)
        column[:lvl] = 1.0
        column[lvl] = -lvl
        gens.append(np.diag(column / math.sqrt(lvl * (lvl + 1.0))))
    return np.stack(gens)


@dataclass(frozen=True, eq=False)
class EmbeddingState:
    """A Gram matrix on a section space plus everything needed to integrate
    against the embedding it induces.

    `transform` columns are a G-orthonormal frame, the Gram's whitener,
    derived from the Gram, so no copy with another Gram keeps a stale one.
    `jet` is the 1-jet of the raw section basis at the rule nodes, one
    order-major table (1 + dim, n, N): row 0 the values (`values`), then
    one (n, N) row per holomorphic direction.  The memo, read-only and
    empty in a new state, holds `_pairings` and the node tables they
    read: `_geometry` off the torus, `_torus_geometry` at a torus state;
    `_table` is shared by every `with_gram` copy, as `jet` is.

    A state is validated where it is born (`embedding_state`, `with_gram`
    and `dataclasses.replace` alike): one Gram row per section, and the
    whitener formed at once.  The rule picks the Gram's form: a `torus`
    state, one on an `OrbitRule`, holds N weights (`DiagonalGram`) and
    keeps the diagonal of a matrix it is given once the matrix passes
    `torus_invariance_guard`; any other state holds a `GramMatrix`.  A
    torus state's pairings are diagonal, the off-diagonal entries of a
    torus-invariant state being exactly 0 (derived in `torus_orbit_rule`),
    and read off `_table` without a frame, and its operator is one real
    block per torus charge (`_charge_blocks`).
    """

    model: object
    basis: object
    gram: GramMatrix
    rule: ChartRule
    jet: np.ndarray

    def __post_init__(self):
        gram = self.gram
        if self.torus and not isinstance(gram, DiagonalGram):
            torus_invariance_guard(gram.matrix, self.model, "Gram")
            gram = make_gram(np.diagonal(gram.matrix).real)
        elif not self.torus and isinstance(gram, DiagonalGram):
            gram = make_gram(gram.matrix)
        object.__setattr__(self, "gram", gram)
        if gram.n != self.count:
            raise ValueError(f"Gram size {gram.n} does not match "
                             f"section count {self.count}")
        if not self.torus:  # weights are checked where they are made
            gram.whitener()

    @property
    def torus(self):
        return isinstance(self.rule, OrbitRule)

    @property
    def k(self):
        return self.model.k

    @property
    def count(self):
        return self.basis.count

    @property
    def values(self):
        """The raw section values at the rule nodes, (n, N): row 0 of
        `jet`."""
        return self.jet[0]

    @property
    def transform(self):
        return self.gram.whitener()

    @cached_property
    def _geometry(self):
        """The state's `_fs_geometry`, read-only."""
        geometry = _fs_geometry(self)
        for table in geometry:
            table.flags.writeable = False
        return geometry

    @cached_property
    def _table(self):
        """A torus state's section-jet products: (N, M n), which against
        1/c gives the M = 1 + dim + dim^2 node rows of `_frame_sums`, and
        |s_p|^2 (n, N) for the raw pairing."""
        v, dv = self.jet[0], self.jet[1:]
        square = _abs2(v)
        rows = [square, *(dv * np.conj(v)),
                *(dv[:, None] * np.conj(dv)).reshape(-1, *v.shape)]
        table = np.array(rows, dtype=complex).reshape(-1, v.shape[1]).T
        table = np.ascontiguousarray(table)
        table.flags.writeable = square.flags.writeable = False
        return table, square

    @cached_property
    def _pairings(self):
        """The `MomentValue`, the frame pairing and the basis pairing: what
        `moment_map`, `t_map_step` and `balanced_density_stats` read.  A
        torus state reads them off `_torus_geometry` and `_table`, any
        other its `_geometry`."""
        if self.torus:
            kk, _, _, wq = self._torus_geometry
            raw = (wq / kk) @ self._table[1]
            frame = raw * (1.0 / self.gram.weights)
        else:
            u, _, kk, _, wq = self._geometry
            weights = wq / kk
            frame = l2_pairing(u, weights)
            raw = l2_pairing(self.values, weights)
        frame.flags.writeable = raw.flags.writeable = False
        return _moment(frame, float(wq.sum())), frame, raw

    @cached_property
    def _torus_geometry(self):
        """A torus state's K, gradient, pulled-back metric and rule weights
        times density, read-only: `_frame_sums` as one GEMV of `_table`'s
        real view with 1/c, then `_pullback_data`."""
        table, square = self._table
        dim = self.model.n
        sums = ((1.0 / self.gram.weights) @ table.view(float)).view(
            complex).reshape(-1, square.shape[0])
        kk, grad = sums[0].real, sums[1:dim + 1]
        gfs, dens = _pullback_data(kk, grad,
                                   sums[dim + 1:].reshape(dim, dim, -1))
        geometry = kk, grad, gfs, self.rule.weights * dens
        for table in geometry:
            table.flags.writeable = False
        return geometry

    def with_gram(self, gram):
        """The same embedding data under another Gram, a matrix, a weight
        vector or a kept Gram (`metrics.make_gram`), sharing `jet` and
        `_table`."""
        state = EmbeddingState(self.model, self.basis, make_gram(gram),
                               self.rule, self.jet)
        if self.torus:
            state.__dict__["_table"] = self._table
        return state


def embedding_state(model, gram=None, rule=None, metric=None, basis=None,
                    n_radial=None):
    """Build an `EmbeddingState`, evaluating the 1-jet of the sections at
    the rule nodes as one table (`SectionBasis.eval_embedding_jet`).

    `rule` wins over `metric` (which requests the metric-adapted total rule)
    which wins over the plain product rule; both built rules take the
    caller's `n_radial`, which is required when no `rule` is given.  The
    adapted rule's fiber is sized for the fiber integrands of the bundle
    metric, not for the pulled-back geometry of an embedding.  On a
    `torus_orbit_rule` the state is a torus state.  `gram` (the identity
    by default) is a matrix or a kept `GramMatrix`, read in the raw
    section basis of the table.  A state that differs only in the Gram
    comes from `EmbeddingState.with_gram`.
    """
    if basis is None:
        basis = build_section_basis(model)
    if rule is None:
        if n_radial is None:
            raise ValueError("embedding_state needs a rule or n_radial")
        if metric is not None:
            rule = adapted_total_rule(metric, model, n_radial=n_radial)
        else:
            rule = total_rule(model, n_radial=n_radial)
    gram = np.eye(basis.count) if gram is None else gram
    return EmbeddingState(model=model, basis=basis, gram=make_gram(gram),
                          rule=rule, jet=basis.eval_embedding_jet(rule.points))


def _tangent_frame(tang):
    """Orthonormal frame (n, N, dim) of the columns of a direction-major
    stack tang (dim, n, N), with their smallest and largest singular values
    per node, at every dim: a Householder QR of the columns, whose small
    (dim, dim) R factor has their singular values.  Real columns give a
    real frame.  A zero column still gets an orthonormal frame column (its
    reflector is the identity) and sigma_min = 0, never a NaN."""
    frame, r = np.linalg.qr(np.moveaxis(tang, 0, -1))
    sv = np.linalg.svd(r, compute_uv=False)
    return frame, sv[:, -1], sv[:, 0]


def _abs2(x):
    return x.real ** 2 + x.imag ** 2


def _frame_sums(u, du):
    """Row sums over the sections of a frame table u (n, N) and its
    direction-major jets du (dim, n, N): K = |u|^2 (n,), b_a = sum_p du_pa
    conj(u_p) (dim, n) and A_ab = sum_p du_pa conj(du_pb) (dim, dim, n)."""
    uc = np.conj(u)
    return (np.einsum("np,np->n", u, uc).real,
            np.einsum("anp,np->an", du, uc),
            np.einsum("anp,bnp->abn", du, np.conj(du)))


def _pullback_data(kk, grad, pair):
    """Pulled-back metric coefficients (n, dim, dim) and reduced volume
    density (n,) from the row sums of `_frame_sums` (or a torus state's
    `_table` against 1/c), with both guards: a vanishing kernel, and a
    density below its roundoff floor, each failing closed on NaN.

    The metric d d-bar log |u|^2 of a frame u has the coefficient matrix
    A/K - b b^H / K^2, of which the Hermitian part is kept, exact under
    roundoff.  The density is its `hermitian_det` times 2^dim / (2 pi)^dim.
    """
    if not (np.minimum.reduce(kk, initial=math.inf) > 0.0
            and np.maximum.reduce(kk, initial=0.0) < math.inf):
        node = int(np.argmin(np.isfinite(kk) & (kk > 0.0)))
        raise NumericalGuardError(
            f"embedding kernel vanished at node {node} of {len(kk)}: |u|^2 "
            f"= {kk[node]:.3e}; the sections have a common zero there (use "
            "a basis without one, as sections.build_section_basis builds) "
            "or the node or the Gram is not finite")
    dim = grad.shape[0]
    gfs = (pair / kk - grad[:, None] * np.conj(grad) / kk ** 2).transpose(
        2, 0, 1)
    gfs = 0.5 * (gfs + np.conj(np.swapaxes(gfs, 1, 2)))
    dens = hermitian_det(gfs) * 2.0 ** dim / (2.0 * math.pi) ** dim
    top = np.maximum.reduce(dens, initial=0.0)
    floor = -1e-12 * max(1.0, top)
    if not (np.minimum.reduce(dens, initial=math.inf) >= floor
            and top < math.inf):
        node = int(np.argmin(np.isfinite(dens) & (dens >= floor)))
        raise NumericalGuardError(
            f"embedding volume density {dens[node]:.3e} at node {node} of "
            f"{len(dens)} not nonnegative (floor {floor:.1e}), as it is in "
            "exact arithmetic: check GramMatrix.condition() of the state's "
            "Gram and that the node and its section jet are finite")
    return gfs, np.maximum(dens, 0.0)


def _fs_geometry(state):
    """Frame values, direction-major jets, kernel, its gradient (dim, n),
    and the rule weights times the reduced volume density, at the rule
    nodes of a state: the Gram's `frame` moves the 1-jet to the
    orthonormal frame at once, and u, du are views of it.  No torus state
    needs it: they read `_torus_geometry`."""
    mixed = state.gram.frame(state.jet)
    u, du = mixed[0], mixed[1:]
    kk, grad, pair = _frame_sums(u, du)
    return u, du, kk, grad, state.rule.weights * _pullback_data(
        kk, grad, pair)[1]


def embedding_form_field(state):
    """Callable evaluating the pulled-back metric coefficient matrix of a
    state's embedding at arbitrary chart points, (n, dim, dim).

    Unlike the cached node table this evaluates the 1-jet of the section
    basis at the points it is given, one table per call: `r_bounded_check`
    holds its jets to it, and the tests difference it as their oracle."""
    gram = state.gram
    basis = state.basis

    def field(pts):
        mixed = gram.frame(basis.eval_embedding_jet(pts))
        return _pullback_data(*_frame_sums(mixed[0], mixed[1:]))[0]

    return field


class MomentValue:
    """Trace-free L2 defect of an embedding state.

    `matrix` is Hermitian with zero trace and read-only, since a state
    keeps its moment; a torus state's moment is diagonal, given by its N
    diagonal entries, and `matrix` is formed from them when first read.
    `d` is the balanced pairing value volume / count that was subtracted
    from the diagonal.
    """

    def __init__(self, matrix, d, volume, norm_op, norm_fro):
        self._entries = matrix
        self.d = d
        self.volume = volume
        self.norm_op = norm_op
        self.norm_fro = norm_fro

    @cached_property
    def matrix(self):
        m = self._entries
        if m.ndim == 1:
            m = np.diag(m)
            m.flags.writeable = False
        return m

    @property
    def count(self):
        return self._entries.shape[0]


def moment_map(state):
    """Moment of an embedding state: the orthonormal-frame L2 Gram against
    the pulled-back volume, minus (V/N) times the identity.

    The trace vanishes identically because sum_p |u_p|^2 / K = 1 pointwise,
    so tr(raw) is the volume itself; what remains measures the failure of
    the frame to be orthonormal in its own induced L2 structure.  The
    state keeps it (`EmbeddingState._pairings`): every call on a state
    returns the same value.
    """
    return state._pairings[0]


def _moment(raw, vol):
    """`MomentValue` of a frame pairing `raw` against the volume `vol`."""
    n = raw.shape[0]
    dval = vol / n
    if raw.ndim == 1:  # a torus state's diagonal: its own spectrum
        m = eigs = raw - dval
        fro = math.sqrt(eigs @ eigs)
    else:
        m = raw - dval * np.eye(n)
        m = 0.5 * (m + m.conj().T)
        eigs = np.linalg.eigvalsh(m)
        fro = float(np.linalg.norm(m))
    m.flags.writeable = False
    return MomentValue(matrix=m, d=dval, volume=vol,
                       norm_op=float(np.abs(eigs).max()), norm_fro=fro)


def t_map_step(state):
    """One fixed-point update: the next Gram is (N/V) times the L2 pairing
    of the ORIGINAL basis against the current pulled-back volume, then
    det-normalized to 1.

    In the orthonormal frame this reads G_perp -> I + (N/V) M, so fixed
    points are exactly the balanced states; the det gauge removes the
    overall scale the embedding never sees: for a torus state's weights,
    their geometric mean.
    """
    mv, _, raw = state._pairings
    newg = (state.count / mv.volume) * raw
    if state.torus:
        newg /= math.exp(np.log(newg).sum() / state.count)
    else:
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
    far the state sits from balance in the pointwise sense.  The volume,
    the frame pairing and the node tables are the state's own memo; a
    torus state reads |u_p|^2 / frame_p = |s_p|^2 / raw_p off its
    `_table`, with no frame."""
    mv, frame, raw = state._pairings
    if state.torus:
        kk, _, _, wq = state._torus_geometry
        rho = (state._table[1] @ (1.0 / raw)) / kk
    else:
        u, _, kk, _, wq = state._geometry
        inv = np.linalg.inv(0.5 * (frame + frame.conj().T))
        rho = ((np.conj(u) @ inv.T) * u).sum(axis=1).real / kk
    vol = mv.volume
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
    `converged` holds exactly when the final op norm is below the solver's
    tolerance.
    `fallback_steps` counts the Newton steps that were halved at least
    once before the moment fell; it is 0 for the T-iteration and the flow.
    """

    iterations: int
    trajectory: list
    state: EmbeddingState
    moment: MomentValue
    converged: bool
    diverged: bool
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
        moment=mv, converged=converged, diverged=diverged,
        wall_time=time.perf_counter() - t0)
    logger.debug("%s: %d iterations, final norm %.3e, converged=%s",
                 name, report.iterations, trajectory[-1][1], converged)
    return report


def balance_iterate(state, tol=1e-8, max_iter=500):
    """Drive a state to balance until the moment op norm drops below
    `tol`, the iteration budget runs out, or the trajectory diverges.
    Divergence yields a flagged partial report, not an exception.  A
    torus state takes `_NewtonStepper` steps, any other `t_map_step`s."""
    if not state.torus:
        return _iterate(state, tol, max_iter, t_map_step, "T-iteration")
    newton = _NewtonStepper(state.basis)
    report = _iterate(state, tol, max_iter, newton, "Newton balance iteration")
    return replace(report, fallback_steps=newton.halved)


class _NewtonStepper:
    """Damped Newton on x = log c for a torus state's weights c, one call
    per iteration.  The moment's Jacobian in x is -Q_0, the charge-0
    block of `_charge_blocks` (the N diagonal pairs), up to terms that
    vanish with it (Donaldson, J. Differential Geom. 59, 2001; Phong &
    Sturm, Amer. J. Math. 126, 2004), and Q_0's kernel is exactly span{1, w}, w the torus weights
    (`SectionBasis.chart_exponents`): the scale and the torus, which move
    the image by automorphisms.  With P an orthonormal basis of it the
    step solves (Q_0 + P P^T) delta = (I - P P^T) mu, so no singular value
    is cut and x stays orthogonal to span{1, w}, the det gauge with it.  A
    step that does not strictly lower the moment's Frobenius norm, or
    trips a guard, is halved (`halved` counts such steps); one halved
    until it no longer moves x raises `NumericalGuardError`, as at the
    torus obstruction of P(O + O(1))."""

    def __init__(self, basis):
        weights = basis.chart_exponents
        self.kernel = np.linalg.qr(
            np.column_stack([np.ones(len(weights)), weights]))[0]
        self.diagonal = np.arange(len(weights)) * (len(weights) + 1)
        self.halved = 0

    def __call__(self, state):
        mv, frame, _ = state._pairings
        p = self.kernel
        mu = frame - mv.d
        [(_, [q0])], _ = _charge_blocks(state, [self.diagonal])
        delta = np.linalg.solve(q0 + p @ p.T, mu - p @ (p.T @ mu))
        x = np.log(state.gram.weights)
        scale = 1.0
        while not np.array_equal(x + scale * delta, x):
            try:  # a non-finite Gram from an overflowing exp trips a guard
                with np.errstate(over="ignore"):
                    cand = state.with_gram(np.exp(x + scale * delta))
                if moment_map(cand).norm_fro < mv.norm_fro:
                    self.halved += scale < 1.0
                    return cand
            except NumericalGuardError:
                pass
            scale *= 0.5
        raise NumericalGuardError(
            f"Newton step halved to nothing: the moment norm {mv.norm_fro:.3e}"
            " does not fall along it; the model has no balanced metric (a "
            "torus obstruction) or the quadrature cannot resolve the step")


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

@dataclass(frozen=True, eq=False)
class SigmaZOperator:
    """Gram matrix Q of the normal components of the su(N) action fields,
    held in the matrix-unit basis E_ji of all N x N matrices as Hermitian
    blocks whose spectra together are that operator's, Q_E.

    Q[a, b] = integral of <pi_N(xi_a u), pi_N(xi_b u)> / |u|^2 against the
    pulled-back volume.  `charges` are stacks (pairs (count, n), blocks
    (count, n, n)), one per block size, pair j N + i standing for E_ji: one
    real block per torus charge at a torus state, else one complex block
    of all N^2 pairs.
    `sectors` counts the blocks and `largest_sector` is the largest n.
    `units` (Q_E itself) and `q_matrix` (Q in the generators, `su_basis`
    unless others were given) are formed when first read.  `skipped`
    counts nodes where the embedding jet dropped rank and no normal
    projection exists.
    """

    charges: tuple
    count: int
    skipped: int
    samples: int
    volume: float
    generators: object = None

    @property
    def sectors(self):
        return sum(len(q) for _, q in self.charges)

    @property
    def largest_sector(self):
        return max(q.shape[-1] for _, q in self.charges)

    @cached_property
    def units(self):
        """Q_E (N^2, N^2) from its blocks, 0 between sectors."""
        nsq = self.count ** 2
        m = np.zeros((nsq, nsq), dtype=complex)
        for pairs, q in self.charges:
            m[pairs[:, :, None], pairs[:, None, :]] = q
        return m

    @cached_property
    def q_matrix(self):
        gens = self.generators
        return _contract(self.units, su_basis(self.count) if gens is None
                         else np.asarray(gens))


def sigma_z_operator(state, generators=None):
    """Integrate the squared normal parts of the generator action fields.

    At each node the tangent space of the image is spanned by the jet
    columns projected off the cone direction u; the field of a Hermitian
    generator xi is xi u, projected off the cone and the tangent space and
    normalized by |u|.  With P the normal projector I - u u^H / K - U U^H
    (U U^H the tangent projector, K = |u|^2) the integrand is
    (xi_a u)^H P (xi_b u) / K, so in the matrix-unit basis E_ji of the
    generators Q_E[(j, i), (k, l)] = sum_n s_n conj(u_ni) P_njk u_nl with
    s_n = w_n / K_n, and no field is ever formed.  Rank-deficient nodes
    (branch points of the chosen sub-system), where the smallest singular
    value of the tangent columns is at most 1e-12 of the largest, get
    weight zero, with a warning; both paths take U and that decision from
    one per-node frame (`_normal_frame`).  P u = 0 at every node, so Q_E
    annihilates the identity exactly.

    Off the torus Q_E is one block, a node sum over all N^2 pairs
    (`_node_sum`).  A `torus` state sums on its `torus_orbit_rule`
    nodes and keeps only the entries whose torus character
    W_j - W_i - W_k + W_l is 0 (W_p the weight of section p), so Q_E is
    block diagonal by the charge W_j - W_i (`_charge_sectors`), and each
    block is formed alone, real (`_charge_blocks`).
    `generators` (`su_basis` by default) only shape
    `SigmaZOperator.q_matrix`, when it is read.

    Why the kept entries are exact.  A rotation theta of the chart angles
    acts on the sections by the diagonal unitary R = diag(chi_p(theta)),
    chi_p the character of W_p.  Under a diagonal Gram the frame rotates
    with it, u(theta) = R u(0), and so do the tangent span and the normal
    projector, P(theta) = R P(0) R^H, while K and the volume density are
    invariant.  So an entry of Q_E is its value at angle 0 times its
    character, and its orbit integral is the orbit-weighted value when the
    character is 0 and exactly 0 otherwise.  The full angular rule gets
    the same sums on 2 D + 1 angles per base and 3 per fiber coordinate
    (D = `torus_degree`): an entry pairs four sections, so it has
    frequency at most 2 D in each base angle and 2 in each fiber angle,
    and the trapezoid rule on n angles integrates exp(i p theta) exactly
    for |p| < n (Trefethen & Weideman, SIAM Review 56, 2014).  D + 1 base
    angles would not do: on P^1 at k = 2, lambda_z then reads 3.96
    instead of 2.5.  `torus_rule_check` compares the two."""
    nn = state.count
    if state.torus:
        charges, valid = _charge_blocks(state, _charge_sectors(state.basis))
        wq = state._torus_geometry[3]
    else:
        u, du, kk, grad, wq = state._geometry
        m, valid = _node_sum(u, du, kk, grad, wq)
        charges = ((np.arange(nn * nn)[None], m[None]),)
    skipped = int(np.count_nonzero(~valid))
    if skipped:
        logger.warning(
            "sigma_z_operator: skipped %d node(s) with rank-deficient "
            "embedding jet", skipped)
    return SigmaZOperator(
        charges=charges, count=nn, skipped=skipped,
        samples=int(np.count_nonzero(valid)),
        volume=float(np.where(valid, wq, 0.0).sum()), generators=generators)


def _normal_frame(u, du, kk, grad, wq):
    """Orthonormal tangent frames (n, N, dim) of the image at nodes, whether
    each node has one, and the weights w / K of the valid nodes, 0 at the
    others: both operator kernels' one rank decision.  The tangent columns
    are the jets projected off the cone, du_a - b_a u / K, and a node is
    valid when their smallest singular value exceeds 1e-12 of the largest.
    Real tables, a torus state's at its orbit nodes, give a real frame."""
    tang = du - (grad / kk)[:, :, None] * u
    uf, smin, smax = _tangent_frame(tang)
    valid = smin > 1e-12 * np.maximum(smax, 1e-30)
    return uf, valid, np.where(valid, wq, 0.0) / kk


# bytes of one (nodes, N, N) complex slab of the general path's node sum,
# whose node blocks hold at most this many: the operator self-check of
# `torus_rule_check` on P^2 x P^1 at k = 6 (3,375 nodes, N = 56) peaks at
# 441 MiB resident with them and 716 MiB without
_NODE_BLOCK_BYTES = 1 << 24


def _node_sum(u, du, kk, grad, wq):
    """Q_E (N^2, N^2) of the general path, with the nodes' valid mask:
    M[(j, k), (i, l)] = sum_n s_n P_njk conj(u_ni) u_nl, one GEMM per node
    block of `_NODE_BLOCK_BYTES`, then reordered to (j, i), (k, l)."""
    nodes, nn = u.shape
    step = max(1, _NODE_BLOCK_BYTES // (16 * nn * nn))
    m = np.zeros((nn * nn, nn * nn), dtype=complex)
    valid = np.empty(nodes, dtype=bool)
    diag = np.arange(nn)
    for lo in range(0, nodes, step):
        block = slice(lo, lo + step)
        ub, kb = u[block], kk[block]
        uf, valid[block], scale = _normal_frame(
            ub, du[:, block], kb, grad[:, block], wq[block])
        proj = uf @ np.conj(np.swapaxes(uf, 1, 2))
        proj += ub[:, :, None] * (np.conj(ub) / kb[:, None])[:, None, :]
        proj *= -scale[:, None, None]
        proj[:, diag, diag] += scale[:, None]
        cone = np.conj(ub)[:, :, None] * ub[:, None, :]
        m += proj.reshape(-1, nn * nn).T @ cone.reshape(-1, nn * nn)
    return m.reshape(nn, nn, nn, nn).transpose(0, 2, 1, 3).reshape(
        nn * nn, nn * nn), valid


def _contract(m, gens):
    """Q_ab = sum conj(xi_a[j, i]) Q_E[(j, i), (k, l)] xi_b[k, l], its
    Hermitian part."""
    flat = gens.reshape(gens.shape[0], -1)
    q = np.conj(flat) @ m @ flat.T
    return 0.5 * (q + q.conj().T)


def _charge_sectors(basis):
    """The pairs (j, i), as the flat index j N + i of the matrix unit E_ji,
    grouped by their torus charge W_j - W_i, each group ascending;
    W_p = (beta, e_alpha) is the weight of section p = lam_alpha z^beta
    (e_0 = 0).  The charge-0 group holds the N diagonal pairs."""
    weights = basis.chart_exponents
    # each weight as one integer in base 2 w + 1, w the largest entry: the
    # digits of a difference of two charges lie in [-2 w, 2 w], so two
    # charges are equal exactly when their codes are
    radix = 2 * int(weights.max(initial=0)) + 1
    codes = weights @ radix ** np.arange(weights.shape[1])
    charge = (codes[:, None] - codes[None, :]).ravel()
    order = np.argsort(charge, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(charge[order])) + 1)


def _charge_blocks(state, sectors):
    """A torus state's Q_E on each sector of pairs, as stacks (pairs
    (count, n), blocks (count, n, n)), one per pair count n, and the
    nodes' valid mask; on the N diagonal pairs, Newton's Q_0.

    Q_E[(j, i), (k, l)] = delta_jk C_il - sum_r H_r,(j,i) H_r,(k,l) with
    C = sum_n s_n u_n u_n^T and per node the rows sqrt(s / K) u_j u_i and
    sqrt(s) e_ja u_i, e_a the columns of the node's tangent frame: a
    diagonal minus a Gram, all real at the orbit nodes.  K, b and w dens
    are `_torus_geometry`'s, u, du the Gram's `frame` of the real jet, and
    the frame, the valid mask and s = w dens / K `_normal_frame`'s, the
    general path's.  Within a sector j = k forces i = l, distinct sections
    having distinct weights, so the delta term is the diagonal
    sum_n s_n u_n,i^2."""
    kk, grad, _, wq = state._torus_geometry
    mixed = state.gram.frame(state.jet.real)
    u = mixed[0]
    frame, valid, scale = _normal_frame(u, mixed[1:], kk, grad.real, wq)
    amp = np.concatenate([u[:, None, :] / np.sqrt(kk)[:, None, None],
                          np.swapaxes(frame, 1, 2)], axis=1)
    amp *= np.sqrt(scale)[:, None, None]
    left = np.ascontiguousarray(amp.reshape(-1, state.count).T)
    right = np.ascontiguousarray(np.repeat(u, amp.shape[1], axis=0).T)
    diagonal = (u ** 2).T @ scale
    by_count = {}
    for sector in sectors:
        by_count.setdefault(len(sector), []).append(sector)
    charges = []
    for group in by_count.values():
        pairs = np.array(group)
        rows, cols = np.divmod(pairs, state.count)
        h = left[rows]
        h *= right[cols]
        q = -(h @ np.swapaxes(h, 1, 2))
        ii = np.arange(pairs.shape[1])
        q[:, ii, ii] += diagonal[cols]
        charges.append((pairs, q))
    return tuple(charges), valid


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

    @property
    def lambda_z(self):
        return 1.0 / self.smallest if self.smallest > 0.0 else 0.0


def eig_estimate(op):
    """Split the spectrum of Q_z into kernel and positive part.

    Q's spectrum is the union of its blocks' (one batched `eigvalsh` per
    block size) less the zero of the identity, which Q_E annihilates and
    which is no generator: `dimension` is N^2 - 1.  Eigenvalues below
    1e-8 times the largest one count as kernel (stabilizer directions of
    the embedded image); the smallest survivor is the quantity whose
    reciprocal grows along k-sweeps.
    """
    eigs = np.sort(np.concatenate(
        [np.linalg.eigvalsh(q).ravel() for _, q in op.charges]))
    dimension = int(eigs.size) - 1
    # absolute floor: the generators are trace-orthonormal and the fields
    # |u|-normalized, so a genuinely nonzero operator has eigenvalues on
    # the scale of the volume; anything below roundoff of that is zero
    if eigs[-1] <= 1e-12 * max(1.0, op.volume):
        return EigEstimate(smallest=0.0, kernel_dim=dimension,
                           dimension=dimension, samples=op.samples)
    positive = eigs[eigs > 1e-8 * eigs[-1]]
    smallest = float(positive[0]) if positive.size else 0.0
    return EigEstimate(smallest=smallest,
                       kernel_dim=dimension - int(positive.size),
                       dimension=dimension, samples=op.samples)


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
# the rule of torus-invariant states
# ---------------------------------------------------------------------------

def torus_degree(model):
    """Highest frequency, in any one base angle, of a section times the
    conjugate of another: D = k + max(degrees).  A section is a monomial
    lam_alpha(xi) z^beta with |beta| <= k + a_alpha, and lam = (1, xi) is
    affine in xi, so in polar chart coordinates that product has frequency
    beta_c - beta'_c in base angle c, at most D in size, and at most 1 in
    each fiber angle."""
    return model.k + max(model.degrees)


@dataclass(frozen=True)
class OrbitRule(ChartRule):
    """`torus_orbit_rule`'s rule: a state on it is a `torus` state.  A
    node stands for its orbit at angle 0: real, nonnegative coordinates."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all((self.points.imag == 0.0) & (self.points.real >= 0.0)):
            raise ValueError("orbit nodes must be real and nonnegative")


def torus_orbit_rule(model, n_radial):
    """One node per torus orbit: the plain rule's `n_radial` radial nodes
    per factor at angle 0 in every coordinate, each weighted with the whole
    angle measure of its orbit: an `OrbitRule`, whose states are torus
    states.

    Why that is exact for a torus state.  A section lam_alpha z^beta has
    torus weight (beta, e_alpha), and distinct sections have distinct
    weights.  A Gram diagonal in the monomial basis keeps the state
    torus-invariant: the rotations of the chart angles act on the sections
    by a diagonal unitary, so they are isometries of the pulled-back
    metric, and the kernel K = |u|^2 and the volume density are constant on
    each orbit.  The frame u is the sections rescaled, so an integrand
    entry carries one character on every orbit: its orbit integral is the
    orbit-weighted value at angle 0 when the character is 0, and exactly 0
    otherwise.  A diagonal pairing integrand |u_p|^2 / K times the density
    has character 0, and an off-diagonal one u_p conj(u_q) / K the nonzero
    weight(p) - weight(q).  The moment and the T-step pairing of a torus
    state are therefore diagonal, and so is each Newton step, taken on the
    log weights: a torus state's Gram is its weights.  `sigma_z_operator`
    keeps its zero-character entries alike (derived in its docstring).
    The radial integrands are those of the full angular rule, so the
    radial grid is the plain rule's.
    """
    rule = product_rule(base_rule(model, n_radial, n_angular=1),
                        fiber_rule(model, n_radial, n_angular=1))
    return OrbitRule(rule.points, rule.weights)


def _orbit_angles(orbits, model, base_angles):
    """The full angular rule on the nodes of `orbits`: `base_angles`
    equispaced angles per base and 5 per fiber coordinate, each angle node
    weighted with its orbit's weight over the angle count."""
    counts = np.array([base_angles] * model.m + [5] * model.fiber_dim, int)
    turns = np.indices(tuple(counts)).reshape(counts.size, counts.prod()).T
    points = orbits.points[:, None, :] * np.exp(2j * np.pi * turns / counts)
    weights = np.repeat(orbits.weights / len(turns), len(turns))
    return ChartRule(points.reshape(-1, orbits.dim), weights)


# largest off-diagonal entry of a Gram, relative to its largest diagonal
# entry, that `torus_invariance_guard` accepts: solved Grams read 0.0 on
# the orbit rule and 1e-14 or less on the full angular rule, direct-route
# Grams 1.8e-16 or less
_TORUS_GRAM_TOL = 1e-12


def torus_invariance_guard(gram, model, name):
    """The largest off-diagonal entry of `gram`, a Gram of `model`'s
    monomial sections called `name` in messages, relative to its largest
    diagonal entry.  `torus_orbit_rule`, with the diagonal pairings and the
    charge blocks of `sigma_z_operator`, is exact only for torus-invariant
    states, whose Gram is diagonal; a ratio above 1e-12 raises
    `NumericalGuardError`."""
    gram = np.asarray(gram)
    diagonal = np.abs(np.diagonal(gram))
    off = np.abs(gram - np.diag(np.diagonal(gram)))
    ratio = float(np.max(off) / np.max(diagonal))
    if not ratio <= _TORUS_GRAM_TOL:  # fails closed on NaN
        raise NumericalGuardError(
            f"torus rule on {model.label}: the {name}'s largest off-diagonal "
            f"entry is {ratio:.2e} of its largest diagonal entry, above "
            f"{_TORUS_GRAM_TOL:g}; the torus orbit rule is exact only for "
            "torus-invariant states, whose Gram is diagonal in the monomial "
            "basis, and this state is not (a state off the torus needs the "
            "plain rule: embedding_state without torus_orbit_rule)")
    return ratio


# largest move, relative to the volume, that `torus_rule_check` accepts:
# 3.3e-14 or less when the orbit rule holds (P^2 x P^1, k = 6), 5e-3 or more
# on each orbit of P^1 x P^1 alone (k = 3) with D = 0 or a wrong character
_TORUS_CHECK_TOL = 1e-10


def _checked_orbits(state):
    """Indices of the first, middle and last node of a torus state's rule,
    duplicates dropped: the orbits `torus_rule_check` integrates."""
    n = state.rule.weights.shape[0]
    return sorted({0, n // 2, n - 1})


def torus_check_angles(state):
    """The orbits and angle counts `torus_rule_check` compares, as a
    phrase: 2 D + 3 and 5, two more than the integrands' degrees need."""
    return (f"on {len(_checked_orbits(state))} of "
            f"{state.rule.weights.shape[0]} radial orbits, from 1 to "
            f"{2 * torus_degree(state.model) + 3} angles per base "
            "coordinate and from 1 to 5 per fiber coordinate")


def torus_rule_check(state, quantity):
    """Self-estimate of `torus_orbit_rule` at a torus state, on the orbits
    of `_checked_orbits` alone, since the character argument holds orbit by
    orbit: the largest entry move of `quantity` (the moment matrix, say, or
    `SigmaZOperator.units`) from the torus state on those orbits to a
    `GramMatrix` state, evaluated first, on their angular grids
    (`_orbit_angles`; every entry integrated), both with the state's Gram
    and basis, relative to the orbits' volume.  A move above 1e-10 raises
    `NumericalGuardError` naming the model, the orbits, the angles and D."""
    model = state.model
    degree = torus_degree(model)
    picks = _checked_orbits(state)
    orbits = OrbitRule(state.rule.points[picks], state.rule.weights[picks])
    finer = embedding_state(model, gram=state.gram, basis=state.basis,
                            rule=_orbit_angles(orbits, model, 2 * degree + 3))
    coarse = embedding_state(model, gram=state.gram, basis=state.basis,
                             rule=orbits)
    move = float(np.max(np.abs(quantity(finer) - quantity(coarse)))
                 / moment_map(coarse).volume)
    if not move <= _TORUS_CHECK_TOL:  # fails closed on NaN
        raise NumericalGuardError(
            f"torus rule on {model.label}: moved by {move:.2e} (relative to "
            f"the volume) {torus_check_angles(state)}, above "
            f"{_TORUS_CHECK_TOL:g}; the orbit rule assumes a torus-invariant "
            "state whose integrand entries each carry one torus character, "
            "kept where it is 0 and dropped elsewhere, and the full rule "
            "integrands of degree at most 2 D in each base angle and 2 in "
            f"each fiber angle, with D = {degree} = k + max(degrees) "
            "(balancing.torus_degree), and these do not hold")
    return move


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


# r_bounded_check bounds derivatives up to this order: the R-bounded set is
# a C^4 condition
_COMPARABILITY_ORDER = 4

# largest entry move, relative to the largest entry at the node, between
# the order-0 term of a state's Taylor jet and its form field: 5.5e-15 or
# less on P^1 x P^1, k = 2..6, at the solved and the initial state, 16
# nodes of the unit polydisc for each of five seeds
_JET_FIELD_TOL = 1e-12


def _form_derivatives(state, pts):
    """The pulled-back metric of a state at chart nodes pts (n, d), from
    `embedding_form_field`, and its real derivatives up to
    `_COMPARABILITY_ORDER` there, exact: `kahler.log_kernel_jet` of the
    Taylor coefficients of the frame, those of the sections
    (`SectionBasis.eval_taylor`) times the whitener.  The jet's order-0
    term is the field itself; a move above `_JET_FIELD_TOL` raises
    `NumericalGuardError` naming the node."""
    field = embedding_form_field(state)(pts)
    orders = jet_tables(pts.shape[1], _COMPARABILITY_ORDER).hol
    derivs = log_kernel_jet(
        state.gram.frame(state.basis.eval_taylor(pts, orders)),
        pts.shape[1], _COMPARABILITY_ORDER)
    scale = np.max(np.abs(field), axis=(1, 2))
    move = np.max(np.abs(derivs[0] - field), axis=(1, 2)) / scale
    if not np.all(move <= _JET_FIELD_TOL):  # fails closed on NaN
        node = int(np.argmax(~(move <= _JET_FIELD_TOL)))
        raise NumericalGuardError(
            f"Taylor jet of the embedding form of {state.model.label} off "
            f"its form field by {move[node]:.2e} (relative) at node {node} of "
            f"{len(move)}, above {_JET_FIELD_TOL:g}: the jet tables "
            "(kahler.jet_tables) or the section Taylor coefficients "
            "(SectionBasis.eval_taylor) no longer match "
            "balancing.embedding_form_field")
    return field, derivs


def r_bounded_check(candidate, reference, pts, r_bound):
    """Check that the embedding form of the state `candidate` stays within
    a two-sided C^4 bound of that of the state `reference` at the given
    chart nodes (n, d).

    Every real partial derivative of the difference of the two forms up to
    order `_COMPARABILITY_ORDER` (4), one per multiset of the 2 d real
    directions and exact (`_form_derivatives`), is measured in the
    reference-whitened operator norm with one factor of ||g0^{-1/2}|| per
    derivative index; `c_a_norm` is the largest such norm over the nodes
    and derivatives.  The lower bound `min_ratio` is the smallest
    eigenvalue of the whitened candidate over the nodes.  The smallest
    eigenvalues, the reference's inverse root and the norms are `kahler`'s
    kernels, closed forms at d = 2.  Each state's form field is evaluated
    once, at the nodes.
    """
    if r_bound <= 1.0:
        raise ValueError(f"bound must exceed 1, got {r_bound}")
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError(
            f"pts must be a 2-D array (nodes, d) with at least one row and "
            f"one column, got shape {pts.shape}")
    n, d = pts.shape
    g0, ref_derivs = _form_derivatives(reference, pts)
    smallest = smallest_eigenvalue(g0)
    bad = ~(smallest > 0.0)  # fails closed on NaN
    if bad.any():
        node = int(np.argmax(bad))
        raise NumericalGuardError(
            f"reference metric of {reference.model.label} not positive at "
            f"node {node} of {n}: smallest eigenvalue "
            f"{smallest[node]:.3e}, reference Gram condition number "
            f"{reference.gram.condition():.3e}; the reference must be an "
            "embedding at every node: check its Gram (GramMatrix.condition) "
            "and that the node is finite")
    w0 = inverse_sqrt(g0)
    dirweight = 1.0 / np.sqrt(smallest)
    gc, derivs = _form_derivatives(candidate, pts)
    # every derivative X whitened at once: vec(w0 X w0) = (w0 kron w0^T)
    # vec(X) at each node, one (d^2, d^2) matrix against all of them
    kron = (w0[:, :, None, :, None]
            * np.swapaxes(w0, 1, 2)[:, None, :, None, :]).reshape(n, d * d,
                                                                  d * d)
    diff = np.moveaxis(derivs - ref_derivs, 0, -1).reshape(n, d * d, -1)
    norms = hermitian_norm(np.moveaxis((kron @ diff).reshape(n, d, d, -1),
                                        -1, 1))
    levels = jet_tables(d, _COMPARABILITY_ORDER).levels
    c_a = float(np.max(norms * dirweight[:, None] ** levels))

    wcand = np.einsum("nab,nbc,ncd->nad", w0, gc, w0)
    min_ratio = float(np.min(smallest_eigenvalue(wcand)))
    margins = (r_bound - c_a, min_ratio - 1.0 / r_bound)
    return RBoundedReport(passes=bool(margins[0] >= 0.0 and margins[1] >= 0.0),
                          c_a_norm=c_a, min_ratio=min_ratio, margins=margins,
                          order=_COMPARABILITY_ORDER, nodes=int(n))


@dataclass(frozen=True)
class OrderVerdict:
    """Decay-order classification of a moment sequence."""

    passes: bool
    fitted_order: float
    d_defect: float
    order_target: float


def almost_balanced_check(entries, q, expected_d, d_tol=1e-8):
    """Classify a sequence of (k, moment) pairs as almost balanced to
    order q.

    Requires at least three levels.  The pairing values D must match
    `expected_d`, one exact V/N per level (V from
    `sections.riemann_roch_dimension`), to d_tol; the op norms must decay
    at fitted order at least q + 1 - 0.3 in a log-log fit.  An exactly
    vanishing sequence (norms below 1e-12) passes every order.
    """
    entries = list(entries)
    if len(entries) < 3:
        raise ValueError(
            f"order fit needs at least three levels, got {len(entries)}")
    ks = np.array([float(k) for k, _ in entries])
    # a set, not np.unique, which imports numpy.ma on first use
    if len(set(ks.tolist())) != ks.size:
        raise ValueError("duplicate levels in the moment sequence")
    norms = np.array([mv.norm_op for _, mv in entries])
    expected_d = list(expected_d)
    if len(expected_d) != len(entries):
        raise ValueError("expected_d length does not match entries")
    defects = [abs(mv.d - want) for (_, mv), want in zip(entries, expected_d)]
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
