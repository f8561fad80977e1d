"""Balancing layer: moment map, T-iteration, gradient flow, action spectrum.

Frozen facts the tests lean on, derived independently of the implementation:

* Full linear systems are balanced for every Gram.  For O(1) on P^1 the
  embedding is the identity of P^1, and with G = diag(g0, g1) the kernel is
  K = 1/g0 + u/g1 (u = |z|^2); both diagonal L2 pairings reduce to the beta
  integrals  int_0^inf (1+cu)^{-3} c du = 1/2  and
  int_0^inf cu (1+cu)^{-3} c du = c/2 * (1/c) = 1/2, so the Gram of the
  orthonormal frame is (V/N) I exactly, for every diagonal G; unitary
  equivariance extends this to every Hermitian positive G.  The moment map
  vanishes identically, so only quadrature noise remains.
* The Veronese curve P^1 -> P^2 by O(2) is NOT homogeneous under SU(3), so
  perturbed Grams have genuinely nonzero moment there.
* su(N) acts on the Veronese curve with a 3-dimensional stabilizer algebra
  (the su(2) image consists of fields tangent to the curve), so Q_z has an
  exact 3-dimensional kernel and N^2 - 1 - 3 = 5 positive directions.
* The comparability check on identical inputs must report margins exactly
  (R, 1 - 1/R): the difference field is identically zero, so every finite
  difference of it vanishes, and the whitened candidate is the identity.
"""

import collections
import functools
import itertools
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projbalance.config import ExperimentConfig, build_model, default_config
from projbalance.errors import NumericalGuardError
from projbalance.kahler import (
    FubiniStudy,
    complex_hessian,
    fs_matrix,
    jet_tables,
)
from projbalance.metrics import (
    DiagonalGram,
    GramMatrix,
    SplitBundleMetric,
    l2_pairing,
    make_gram,
)
from projbalance.quadrature import ChartRule, product_rule
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    ProjectiveSpaceBase,
    SectionBasis,
    TrivialBundleOverPm,
    base_rule,
    build_section_basis,
    fiber_rule,
    riemann_roch_dimension,
)
from projbalance import balancing as bal
from projbalance import bergman as bg
from projbalance import sections
from projbalance import suites

logger = logging.getLogger(__name__)

FS1 = FubiniStudy(1)


def random_spd(rng, n, scale=0.3):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.eye(n) + scale * (a @ a.conj().T) / n


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def veronese_state(gram=None, n_radial=12):
    model = LineBundleSumOverP1((0,), 2)
    return bal.embedding_state(model, gram=gram, n_radial=n_radial)


def dense_moment_oracle(state):
    """Loop-based recomputation of the moment matrix: independent
    orthonormalization (the Cholesky frame L^{-H} of G = L L^H, where the
    library whitens with the Hermitian root), explicit per-node
    accumulation, finite differences nowhere.

    The moment of a unitarily rotated frame is the conjugated moment, so
    the Cholesky-frame moment is conjugated back by the unitary
    W = T^{-1} L^{-H}, T the state's transform, before it is returned."""
    g = state.gram.matrix
    t = np.linalg.inv(np.linalg.cholesky(g)).conj().T
    vals = state.basis.eval_embedding(state.rule.points)
    jet = state.basis.eval_embedding_jet(state.rule.points)
    nn = state.basis.count
    d = state.model.n
    raw = np.zeros((nn, nn), dtype=complex)
    vol = 0.0
    for node in range(state.rule.points.shape[0]):
        u = vals[node] @ t
        du = t.T @ jet[1:, node].T  # (N, d) in the orthonormal frame
        kk = float(np.real(u @ u.conj()))
        gfs = np.zeros((d, d), dtype=complex)
        for a in range(d):
            for b in range(d):
                gfs[a, b] = (du[:, a] @ du[:, b].conj()) / kk \
                    - (du[:, a] @ u.conj()) * (u @ du[:, b].conj()) / kk ** 2
        dens = np.linalg.det(gfs).real * 2.0 ** d / (2.0 * math.pi) ** d
        wq = state.rule.weights[node] * dens
        vol += wq
        raw += wq * np.outer(u.conj(), u) / kk
    w = np.linalg.solve(state.transform, t)
    return w @ (raw - (vol / nn) * np.eye(nn)) @ w.conj().T, vol / nn


def plain_t_iteration(state, tol, max_iter=500):
    """Reference: the plain T-iteration, `t_map_step` repeated until the
    moment op norm drops below `tol`.  Returns the trajectory rows
    (iteration, op norm, Frobenius norm), as in `BalanceReport`, and the
    last state."""
    trajectory = []
    for it in range(max_iter + 1):
        mv = bal.moment_map(state)
        trajectory.append((it, mv.norm_op, mv.norm_fro))
        if mv.norm_op < tol or it == max_iter:
            return trajectory, state
        state = bal.t_map_step(state)


def assert_same_gauge_invariants(first, second, tol):
    """Two states solved to the moment op norm `tol` agree in what the
    automorphisms leave alone: the moment norm, the density's mean and
    largest deviation, and the normal spectrum."""
    stats = []
    for state in (first, second):
        assert bal.moment_map(state).norm_op < tol
        stats.append(bal.balanced_density_stats(state))
    for name in ("mean", "max_dev"):
        assert abs(stats[0][name] - stats[1][name]) < 100 * tol * max(
            1.0, stats[1]["mean"]), name
    ours, theirs = (block_spectrum(bal.sigma_z_operator(state))
                    for state in (first, second))
    assert np.max(np.abs(ours - theirs)) < 100 * tol * theirs[-1]


# ---------------------------------------------------------------------------
# su(N) generators
# ---------------------------------------------------------------------------

class TestSuBasis:
    def test_count_and_normalization(self):
        for n in (2, 3, 6):
            gens = bal.su_basis(n)
            assert gens.shape == (n * n - 1, n, n)
            for a in range(gens.shape[0]):
                assert abs(np.trace(gens[a])) < 1e-14
                assert np.max(np.abs(gens[a] - gens[a].conj().T)) < 1e-14
                for b in range(gens.shape[0]):
                    want = 1.0 if a == b else 0.0
                    assert abs(np.trace(gens[a] @ gens[b]) - want) < 1e-12

    def test_spans_traceless_hermitian(self):
        gens = bal.su_basis(3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = 0.5 * (x + x.conj().T)
        x -= np.trace(x) / 3.0 * np.eye(3)
        coef = np.array([np.trace(g @ x) for g in gens]).real
        rebuilt = np.einsum("a,aij->ij", coef, gens)
        assert np.max(np.abs(rebuilt - x)) < 1e-12


# ---------------------------------------------------------------------------
# embedding states
# ---------------------------------------------------------------------------

class TestEmbeddingState:
    def test_orthonormal_transform_invariant(self):
        rng = np.random.default_rng(7)
        state = veronese_state(gram=random_spd(rng, 3))
        g = state.gram.matrix
        t = state.transform
        assert np.max(np.abs(t.conj().T @ g @ t - np.eye(3))) < 1e-12

    def test_default_gram_is_identity(self):
        state = veronese_state()
        assert np.max(np.abs(state.gram.matrix - np.eye(3))) < 1e-15
        assert state.k == 2
        assert state.basis.count == 3

    def test_built_rule_needs_n_radial(self):
        with pytest.raises(ValueError, match="n_radial"):
            bal.embedding_state(LineBundleSumOverP1((0,), 2))

    def test_non_hermitian_gram_rejected(self):
        model = LineBundleSumOverP1((0,), 2)
        bad = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            bal.embedding_state(model, gram=bad @ bad.T + np.eye(3) * 1j,
                                n_radial=12)

    def test_metric_reference_builds_adapted_rule(self):
        model = LineBundleSumOverP1((0, 1), 2)
        metric = SplitBundleMetric(1, (0, 1))
        state = bal.embedding_state(model, metric=metric, n_radial=8)
        # the same base and fiber nodes, before the fiber moves to the
        # metric-adapted frame
        plain = product_rule(base_rule(model, n_radial=8),
                             bg.adapted_fiber_rule(model))
        assert state.rule.points.shape == plain.points.shape
        assert not np.allclose(state.rule.points, plain.points)

    def test_with_gram_shares_tables_and_starts_without_memo(self):
        rng = np.random.default_rng(37)
        first = veronese_state(gram=random_spd(rng, 3))
        bal.moment_map(first)
        assert "_pairings" in vars(first)
        g = random_spd(rng, 3)
        second = first.with_gram(g)
        for name in ("model", "basis", "rule", "jet"):
            assert getattr(second, name) is getattr(first, name)
        assert np.shares_memory(second.values, first.jet)
        assert "_pairings" not in vars(second)
        assert np.max(np.abs(second.gram.matrix - g)) < 1e-15
        built = veronese_state(gram=g)
        assert np.array_equal(second.transform, built.transform)

    def test_transform_follows_a_replaced_gram(self):
        # the transform is derived from the Gram, so a plain dataclass copy
        # with another Gram cannot keep its source's frame
        rng = np.random.default_rng(41)
        state = veronese_state(gram=random_spd(rng, 3))
        g = random_spd(rng, 3)
        copied = replace(state, gram=make_gram(g))
        assert np.array_equal(copied.transform, state.with_gram(g).transform)
        assert not np.allclose(copied.transform, state.transform)

    def test_with_gram_guards_match_embedding_state(self):
        model = LineBundleSumOverP1((0,), 2)
        state = veronese_state()
        wrong_size = np.eye(4)
        with pytest.raises(ValueError) as built:
            bal.embedding_state(model, gram=wrong_size, n_radial=12)
        with pytest.raises(ValueError) as derived:
            state.with_gram(wrong_size)
        assert str(derived.value) == str(built.value)
        assert "does not match section count 3" in str(derived.value)

        indefinite = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NumericalGuardError) as built:
            bal.embedding_state(model, gram=indefinite, n_radial=12)
        with pytest.raises(NumericalGuardError) as derived:
            state.with_gram(indefinite)
        assert str(derived.value) == str(built.value)
        assert "not positive definite" in str(derived.value)

    def test_replace_guards_match_with_gram(self):
        state = veronese_state()
        with pytest.raises(ValueError) as derived:
            state.with_gram(np.eye(4))
        with pytest.raises(ValueError) as replaced:
            replace(state, gram=make_gram(np.eye(4)))
        assert str(replaced.value) == str(derived.value)
        assert "does not match section count 3" in str(replaced.value)
        with pytest.raises(NumericalGuardError, match="not positive"):
            replace(state, gram=make_gram(np.diag([1.0, 1.0, -1.0])))

    def test_with_gram_keeps_a_gram_matrix(self, monkeypatch):
        rng = np.random.default_rng(43)
        state = veronese_state()
        gm = make_gram(random_spd(rng, 3))
        gm.whitener()
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        moved = state.with_gram(gm)
        built = bal.embedding_state(state.model, gram=gm, rule=state.rule,
                                    basis=state.basis)
        assert moved.gram is gm and built.gram is gm
        assert eigh == []


class TestGeometryKernel:
    def test_pulled_back_metric_is_hermitian(self):
        rng = np.random.default_rng(113)
        state = p1xp1_state(2, gram=random_spd(rng, 6), n_radial=4)
        u, du, _, grad, wq = bal._fs_geometry(state)
        assert np.array_equal(grad, np.einsum("anp,np->an", du, np.conj(u)))
        gfs = bal._pullback_data(*bal._frame_sums(u, du))[0]
        assert np.array_equal(gfs, np.conj(np.swapaxes(gfs, 1, 2)))
        dens = np.linalg.det(gfs).real * 2.0 ** 2 / (2.0 * math.pi) ** 2
        want = state.rule.weights * dens
        assert np.max(np.abs(wq - want)) < 1e-12 * np.max(want)

    def test_kernel_guard_names_the_node_and_the_remedy(self):
        # {z, z^2} vanish together at z = 0, the one node of the rule
        model = LineBundleSumOverP1((0,), 2)
        basis = SectionBasis(model, np.array([0, 0]), np.array([[1], [2]]))
        rule = ChartRule(points=np.zeros((1, 1), dtype=complex),
                         weights=np.ones(1))
        state = bal.embedding_state(model, rule=rule, basis=basis)
        with pytest.raises(NumericalGuardError) as err:
            bal.moment_map(state)
        msg = str(err.value)
        assert "kernel vanished" in msg and "node 0 of 1" in msg
        assert "|u|^2 = 0.000e+00" in msg
        assert "build_section_basis" in msg

    def test_density_guard_names_the_node_and_the_remedy(self):
        u = np.ones((3, 2), dtype=complex)
        du = np.zeros((2, 3, 2), dtype=complex)
        du[0, 1, 0] = np.nan
        with pytest.raises(NumericalGuardError) as err:
            bal._pullback_data(*bal._frame_sums(u, du))
        msg = str(err.value)
        assert "density nan at node 1 of 3 not nonnegative" in msg
        assert "GramMatrix.condition" in msg


# ---------------------------------------------------------------------------
# moment map
# ---------------------------------------------------------------------------

class TestMomentMap:
    def test_full_system_is_balanced_for_any_gram(self):
        # identity embedding of P^1: the beta integrals above force
        # moment zero for EVERY Gram; only quadrature noise remains
        model = LineBundleSumOverP1((0,), 1)
        gram = np.diag([1.1, 0.9])
        state = bal.embedding_state(model, gram=gram, n_radial=12)
        mv = bal.moment_map(state)
        assert mv.norm_op < 1e-10

    def test_point_base_identity_balanced(self):
        state = bal.embedding_state(ProjectivePoint(3), n_radial=10)
        mv = bal.moment_map(state)
        assert mv.norm_op < 1e-10
        assert mv.count == 3

    def test_trace_free_and_hermitian(self):
        rng = np.random.default_rng(11)
        state = veronese_state(gram=random_spd(rng, 3))
        mv = bal.moment_map(state)
        assert abs(np.trace(mv.matrix)) < 1e-10
        assert np.max(np.abs(mv.matrix - mv.matrix.conj().T)) < 1e-12
        assert mv.norm_op > 1e-4  # Veronese is not homogeneous: genuine defect

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        state = veronese_state(gram=random_spd(rng, 3), n_radial=10)
        mv = bal.moment_map(state)
        want, want_d = dense_moment_oracle(state)
        assert np.max(np.abs(mv.matrix - want)) < 1e-10
        assert abs(mv.d - want_d) < 1e-12

    def test_d_reports_volume_over_count(self):
        state = veronese_state()
        mv = bal.moment_map(state)
        assert abs(mv.d - mv.volume / mv.count) < 1e-15
        # degree-2 curve: reduced volume 2
        assert abs(mv.volume - 2.0) < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_trace_zero_property(self, seed):
        rng = np.random.default_rng(seed)
        model = LineBundleSumOverP1((0,), 1)
        state = bal.embedding_state(model, gram=random_spd(rng, 2), n_radial=8)
        mv = bal.moment_map(state)
        assert abs(np.trace(mv.matrix)) < 1e-12 * max(1.0, mv.norm_op)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        g = random_spd(rng, 3)
        m1 = bal.moment_map(veronese_state(gram=g))
        m2 = bal.moment_map(veronese_state(gram=4.2 * g))
        assert np.max(np.abs(m1.matrix - m2.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# T-iteration
# ---------------------------------------------------------------------------

class TestTMapStep:
    def test_identity_fixed_point_on_point_base(self):
        state = bal.embedding_state(ProjectivePoint(3), n_radial=10)
        nxt = bal.t_map_step(state)
        assert np.max(np.abs(nxt.gram.matrix - np.eye(3))) < 1e-10

    def test_projective_invariance(self):
        rng = np.random.default_rng(19)
        g = random_spd(rng, 3)
        out1 = bal.t_map_step(veronese_state(gram=g)).gram.matrix
        out2 = bal.t_map_step(veronese_state(gram=3.7 * g)).gram.matrix
        assert np.max(np.abs(out1 - out2)) < 1e-12

    def test_det_gauge(self):
        rng = np.random.default_rng(23)
        nxt = bal.t_map_step(veronese_state(gram=random_spd(rng, 3)))
        assert abs(np.linalg.det(nxt.gram.matrix).real - 1.0) < 1e-12

    def test_unitary_equivariance(self):
        # The pairing lives on the abstract section space, so conjugating
        # the Gram by U while expressing the sections in the matching
        # rotated frame conjugates the output by U.  Conjugating the Gram
        # ALONE is not a symmetry: with the section tables fixed it moves
        # the embedded image non-isometrically relative to the weight
        # (checked directly: the moment norm itself changes).
        rng = np.random.default_rng(29)
        g = random_spd(rng, 3)
        u = random_unitary(rng, 3)
        state = veronese_state(gram=g)
        uh = u.conj().T
        rotated = replace(state, gram=make_gram(u @ g @ uh),
                          jet=state.jet @ uh)
        out = bal.t_map_step(state).gram.matrix
        conj_out = bal.t_map_step(rotated).gram.matrix
        assert np.max(np.abs(conj_out - u @ out @ u.conj().T)) < 1e-10
        # same geometry, so the moment norm agrees exactly as well
        n1 = bal.moment_map(state).norm_op
        n2 = bal.moment_map(rotated).norm_op
        assert abs(n1 - n2) < 1e-12 * max(1.0, n1)

    def test_monotone_decrease_on_veronese(self):
        rng = np.random.default_rng(31)
        state = veronese_state(gram=random_spd(rng, 3, scale=0.5))
        norms = []
        for _ in range(50):
            norms.append(bal.moment_map(state).norm_op)
            state = bal.t_map_step(state)
        norms = np.array(norms)
        # strict decrease until the float floor, then just boundedness
        live = norms[:-1] > 1e-12
        assert np.all(np.diff(norms)[live] < 0.0)
        assert norms[-1] < 1e-6


# ---------------------------------------------------------------------------
# balance iteration
# ---------------------------------------------------------------------------

class TestBalanceIterate:
    def test_already_balanced_stops_immediately(self):
        state = bal.embedding_state(ProjectivePoint(3), n_radial=10)
        report = bal.balance_iterate(state, tol=1e-8)
        assert report.converged
        assert report.iterations == 0

    def test_product_model_converges_and_density_flattens(self):
        model = TrivialBundleOverPm(1, 2, 2)
        rng = np.random.default_rng(37)
        state = bal.embedding_state(model, gram=random_spd(rng, 6), n_radial=10)
        report = bal.balance_iterate(state, tol=1e-8, max_iter=400)
        assert report.converged
        assert report.trajectory[-1][1] < 1e-8
        stats = bal.balanced_density_stats(report.state)
        assert stats["variance"] < 1e-7
        assert stats["max_dev"] < 1e-6

    def test_trajectory_matches_flag_contract(self):
        rng = np.random.default_rng(41)
        state = veronese_state(gram=random_spd(rng, 3))
        report = bal.balance_iterate(state, tol=1e-3, max_iter=100)
        final_norm = report.trajectory[-1][1]
        assert report.converged == (final_norm < 1e-3)
        assert all(np.isfinite(row[1]) and np.isfinite(row[2])
                   for row in report.trajectory)

    def test_divergence_flagged(self, monkeypatch):
        # force a worsening step to exercise the ten-consecutive-rise exit
        monkeypatch.setattr(bal, "t_map_step", scaling_step(1.3))
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert not report.converged
        assert report.diverged
        assert report.iterations < 100

    def test_guard_trip_mid_iteration_flags_divergence(self, monkeypatch):
        # a step that degenerates the Gram fast enough hits the conditioning
        # guard before ten consecutive rises accumulate; the iteration must
        # return a partial diverged report, not crash
        monkeypatch.setattr(bal, "t_map_step", scaling_step(16.0))
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert not report.converged
        assert report.diverged
        assert len(report.trajectory) >= 1

    def test_guard_trip_mid_iteration_flags_divergence_anderson(
            self, monkeypatch):
        # the guard trips after some accepted steps; the partial report
        # holds the last good state and its moment
        monkeypatch.setattr(bal, "t_map_step", scaling_step(16.0))
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert report.diverged and not report.converged
        assert report.iterations > 0
        assert np.all(np.isfinite(report.state.gram.matrix))
        assert report.moment.norm_op == report.trajectory[-1][1]

    @pytest.mark.parametrize("infinite", [False, True])
    def test_non_finite_step_flags_divergence(self, monkeypatch, infinite):
        # a NaN (or infinite) Gram used to reach LAPACK and crash the run
        # with a raw LinAlgError; now the Gram guard trips and the report
        # is flagged
        fill = np.inf if infinite else np.nan

        def nan_step(state):
            return state.with_gram(np.full_like(state.gram.matrix, fill))

        monkeypatch.setattr(bal, "t_map_step", nan_step)
        rng = np.random.default_rng(43)
        report = bal.balance_iterate(veronese_state(gram=random_spd(rng, 3)),
                                     tol=1e-12, max_iter=50)
        assert report.diverged and not report.converged
        assert report.iterations == 0
        assert all(np.isfinite(row[1]) for row in report.trajectory)

    def test_hirzebruch_sweep_converges(self):
        metric = SplitBundleMetric(1, (0, 1))
        for k in (2, 3):
            model = LineBundleSumOverP1((0, 1), k)
            state = bal.embedding_state(model, metric=metric, n_radial=10)
            report = bal.balance_iterate(state, tol=1e-6, max_iter=300)
            assert report.converged, f"k={k} failed to converge"


def scaling_step(factor):
    """A T-step stand-in with no fixed point: scale G[0, 0] by `factor`
    and restore det G = 1."""
    def step(state):
        g = state.gram.matrix.copy()
        g[0, 0] *= factor
        g /= np.linalg.det(g).real ** (1.0 / g.shape[0])
        return state.with_gram(g)
    return step


def count_geometry_passes(monkeypatch):
    """Record the state of every `_fs_geometry` call."""
    seen = []
    real = bal._fs_geometry

    def counting(state):
        seen.append(state)
        return real(state)

    monkeypatch.setattr(bal, "_fs_geometry", counting)
    return seen


class TestOneGeometryPassPerState:
    def test_balance_iterate(self, monkeypatch):
        # off the torus the solver is the plain T-iteration: one pass per
        # state
        state = p1xp1_state(3)
        seen = count_geometry_passes(monkeypatch)
        report = bal.balance_iterate(state, tol=1e-8)
        assert report.converged and report.fallback_steps == 0
        assert len(seen) == report.iterations + 1
        assert len({id(s) for s in seen}) == len(seen)

    def test_flow_iterate_counts_line_search_candidates(self, monkeypatch):
        # a long first step forces the halving search to reject candidates
        rng = np.random.default_rng(71)
        state = veronese_state(gram=random_spd(rng, 3, scale=1.0))
        made = []
        real_with_gram = bal.EmbeddingState.with_gram

        def recording_with_gram(self, gram):
            made.append(real_with_gram(self, gram))
            return made[-1]

        monkeypatch.setattr(bal.EmbeddingState, "with_gram",
                            recording_with_gram)
        seen = count_geometry_passes(monkeypatch)
        report = bal.flow_iterate(state, tol=1e-8, max_iter=200, step=8.0)
        assert report.converged
        assert len(made) > report.iterations  # some candidates rejected
        distinct = {id(s) for s in seen}
        assert len(distinct) == len(seen)
        assert distinct == {id(s) for s in [state] + made}

    def test_states_differing_only_in_gram_never_share_a_memo(
            self, monkeypatch):
        rng = np.random.default_rng(73)
        first = veronese_state(gram=random_spd(rng, 3))
        second = first.with_gram(random_spd(rng, 3))
        seen = count_geometry_passes(monkeypatch)
        m1 = bal.moment_map(first).matrix
        m2 = bal.moment_map(second).matrix
        bal.moment_map(first)
        bal.t_map_step(second)
        assert len(seen) == 2
        assert np.max(np.abs(m1 - m2)) > 1e-3
        for st, got in ((first, m1), (second, m2)):
            want, _ = dense_moment_oracle(st)
            assert np.max(np.abs(got - want)) < 1e-10
        # a copy with another Gram starts without the memo of its source
        third = replace(first, gram=second.gram)
        m3 = bal.moment_map(third).matrix
        assert len(seen) == 3
        assert np.max(np.abs(m3 - m2)) < 1e-14


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of `owner.name` made through
    that attribute."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestEachStatePaysOnce:
    """A point set costs one section table, a Gram one eigendecomposition
    and a state one moment."""

    def test_one_power_table_per_state_and_per_field_call(self, monkeypatch):
        tables = count_calls(monkeypatch, sections, "_power_table")
        state = p1xp1_state(3)
        assert len(tables) == 1
        field = bal.embedding_form_field(state)
        rng = np.random.default_rng(89)
        field(rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
        assert len(tables) == 2
        # the values are row 0 of the state's one table
        assert np.shares_memory(state.values, state.jet)
        assert np.array_equal(state.values,
                              state.basis.eval_embedding(state.rule.points))

    def test_moment_is_kept_read_only(self, monkeypatch):
        rng = np.random.default_rng(97)
        state = veronese_state(gram=random_spd(rng, 3))
        moment = bal.moment_map(state)
        assert bal.moment_map(state) is moment
        assert not moment.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            moment.matrix[0, 0] = 0.0
        # the T-step and the density read the kept volume, pairings and
        # node tables: no moment and no geometry pass again
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        seen = count_geometry_passes(monkeypatch)
        bal.t_map_step(state)
        assert seen == []
        stats = bal.balanced_density_stats(state)
        assert seen == []
        assert eigvalsh == []
        assert stats["volume"] == moment.volume

    def test_operator_of_a_solved_state_reads_its_geometry(self,
                                                           monkeypatch):
        # a torus state makes no `_fs_geometry` pass: its solve, its
        # operator and its density read its `_torus_geometry`
        model = TrivialBundleOverPm(1, 2, 3)
        state = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        seen = count_geometry_passes(monkeypatch)
        report = bal.balance_iterate(state, tol=1e-9)
        assert report.converged and report.iterations > 0
        q = bal.sigma_z_operator(report.state).q_matrix
        bal.balanced_density_stats(report.state)
        assert seen == [] and "_geometry" not in vars(report.state)
        # the kept tables are read-only and give the fresh copy's operator
        assert not any(table.flags.writeable
                       for table in report.state._torus_geometry)
        fresh = replace(report.state, gram=report.state.gram)
        assert np.array_equal(bal.sigma_z_operator(fresh).q_matrix, q)
        assert seen == []

class TestDensityStats:
    def test_mass_equals_section_count_even_unbalanced(self):
        # trace identity: same-rule pairing makes the integral exactly N
        rng = np.random.default_rng(29)
        state = veronese_state(gram=random_spd(rng, 3))
        stats = bal.balanced_density_stats(state)
        assert abs(stats["mass"] - state.count) < 1e-10
        assert stats["variance"] > 1e-6  # genuinely off balance

    def test_balanced_state_has_flat_density(self):
        model = ProjectivePoint(4)
        state = bal.embedding_state(model, n_radial=4)
        stats = bal.balanced_density_stats(state)
        assert abs(stats["mass"] - 4.0) < 1e-10
        # the volume of O(1) on P^3, 1/6, from the exact degree count
        assert riemann_roch_dimension(model)["volume"] == 1.0 / 6.0
        assert abs(stats["volume"] - 1.0 / 6.0) < 1e-13
        assert stats["variance"] < 1e-20
        assert stats["max_dev"] < 1e-10
        mean_ref = state.count / stats["volume"]
        assert abs(stats["mean"] - mean_ref) < 1e-12 * mean_ref


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------

class TestGradientFlow:
    def test_zero_moment_is_fixed(self):
        state = bal.embedding_state(ProjectivePoint(3), n_radial=10)
        nxt = bal.gradient_flow_step(state, step=0.5)
        assert np.max(np.abs(nxt.gram.matrix - state.gram.matrix)) < 1e-9

    def test_single_step_descends(self):
        rng = np.random.default_rng(47)
        state = veronese_state(gram=random_spd(rng, 3))
        before = bal.moment_map(state).norm_fro
        nxt = bal.gradient_flow_step(state, step=0.5)
        after = bal.moment_map(nxt).norm_fro
        assert after < before

    def test_step_underflow_raises(self, monkeypatch):
        # constant moment norm defeats the halving search
        state = veronese_state(gram=np.diag([1.3, 1.0, 0.8]))
        real_moment = bal.moment_map
        calls = {"n": 0}

        def stuck_moment(st, rule=None):
            mv = real_moment(st)
            calls["n"] += 1
            return bal.MomentValue(
                matrix=mv.matrix, d=mv.d, volume=mv.volume,
                norm_op=1.0, norm_fro=1.0)

        monkeypatch.setattr(bal, "moment_map", stuck_moment)
        with pytest.raises(NumericalGuardError, match="underflow"):
            bal.gradient_flow_step(state, step=0.25)
        assert calls["n"] > 10

    def test_flow_and_iteration_share_fixed_point(self):
        # Aut(P^1) = PGL(2, C) moves a balanced Gram of the Veronese conic
        # along an orbit of balanced Grams, so the solvers may stop at
        # different Grams: compare the gauge invariants.  The
        # normal spectrum is known in closed form: the su(2) stabilizer is
        # a 3-dimensional kernel, and on the 5-dimensional irreducible
        # SU(2)-module left Q is a scalar by Schur's lemma, fixed to 2/5 by
        # tr Q = (N - 1 - n) V = 2.  The density is N/V = 3/2.
        rng = np.random.default_rng(53)
        g0 = random_spd(rng, 3)
        trajectory, plain = plain_t_iteration(veronese_state(gram=g0),
                                              tol=1e-9, max_iter=400)
        it_report = bal.balance_iterate(veronese_state(gram=g0), tol=1e-9,
                                        max_iter=400)
        flow_report = bal.flow_iterate(veronese_state(gram=g0), tol=1e-9,
                                       max_iter=400, step=1.0)
        assert trajectory[-1][1] < 1e-9
        assert it_report.converged and flow_report.converged
        spectra = []
        for state in (plain, it_report.state, flow_report.state):
            op = bal.sigma_z_operator(state)
            assert bal.eig_estimate(op).kernel_dim == 3
            spectra.append(np.linalg.eigvalsh(op.q_matrix))
            stats = bal.balanced_density_stats(state)
            assert abs(stats["mean"] - 1.5) < 1e-12
        spectra = np.array(spectra)
        assert np.max(np.abs(spectra[:, :3])) < 1e-12
        assert np.max(np.abs(spectra[:, 3:] - 0.4)) < 5e-9
        assert np.max(np.abs(np.diff(spectra, axis=0))) < 2e-9

    def test_flow_iterate_reports_convergence(self):
        rng = np.random.default_rng(59)
        report = bal.flow_iterate(
            veronese_state(gram=random_spd(rng, 3)),
            tol=1e-8, max_iter=200, step=1.0)
        assert report.converged and not report.diverged
        assert report.trajectory[-1][1] < 1e-8
        assert bal.moment_map(report.state).norm_op < 1e-8

    def test_flow_iterate_underflow_counts_as_divergence(self, monkeypatch):
        state = veronese_state(gram=np.diag([1.3, 1.0, 0.8]))
        real_moment = bal.moment_map

        def stuck_moment(st, rule=None):
            mv = real_moment(st)
            return bal.MomentValue(
                matrix=mv.matrix, d=mv.d, volume=mv.volume,
                norm_op=1.0, norm_fro=1.0)

        monkeypatch.setattr(bal, "moment_map", stuck_moment)
        report = bal.flow_iterate(state, tol=1e-8, max_iter=50, step=0.25)
        assert report.diverged and not report.converged
        assert len(report.trajectory) == 1


# ---------------------------------------------------------------------------
# embedding form field
# ---------------------------------------------------------------------------

class TestEmbeddingFormField:
    def test_product_model_gives_product_form(self):
        # identity Gram at k=1 embeds P^1 x P^1 by the full bidegree-(1,1)
        # system: the pulled-back form splits into two round factors
        model = TrivialBundleOverPm(1, 2, 1)
        state = bal.embedding_state(model, n_radial=8)
        field = bal.embedding_form_field(state)
        rng = np.random.default_rng(61)
        pts = 0.7 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        got = field(pts)
        want = np.zeros_like(got)
        for axis in range(2):
            want[:, axis, axis] = 1.0 / (1.0 + np.abs(pts[:, axis]) ** 2) ** 2
        assert np.max(np.abs(got - want)) < 1e-12

    def test_identical_fields_pass_comparability(self):
        state = veronese_state()
        pts = state.rule.points[::40]
        report = bal.r_bounded_check(state, state, pts, r_bound=3.0)
        assert report.passes
        assert report.c_a_norm < 1e-12
        assert abs(report.min_ratio - 1.0) < 1e-10

    def test_identity_gram_gives_fs_form(self):
        # the full system of P^2 = P(C^3) with the identity Gram embeds it
        # isometrically: the pulled-back form is the Fubini-Study form
        state = bal.embedding_state(ProjectivePoint(3), n_radial=4)
        rng = np.random.default_rng(30)
        pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        got = bal.embedding_form_field(state)(pts)
        assert np.max(np.abs(got - fs_matrix(pts))) < 1e-10

    def test_gram_scaling_leaves_field_unchanged(self):
        # c G rescales the kernel by 1/c, which d d-bar log does not see
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = a @ a.conj().T + np.eye(3)
        model = LineBundleSumOverP1((0,), 2)
        pts = rng.standard_normal((15, 1)) + 1j * rng.standard_normal((15, 1))
        f1 = bal.embedding_form_field(
            bal.embedding_state(model, gram=g, n_radial=4))(pts)
        f3 = bal.embedding_form_field(
            bal.embedding_state(model, gram=3.0 * g, n_radial=4))(pts)
        assert np.max(np.abs(f3 - f1)) < 1e-10

    def test_matches_log_kernel_hessian(self):
        # exact jets against finite differences of log(v G^{-1} v^H)
        rng = np.random.default_rng(32)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = a @ a.conj().T + 0.5 * np.eye(3)
        state = bal.embedding_state(LineBundleSumOverP1((0,), 2), gram=g,
                                    n_radial=4)
        ginv = np.linalg.inv(g)

        def log_kernel(q):
            v = state.basis.eval_embedding(q)
            return np.log(np.einsum("ni,ij,nj->n", v, ginv, np.conj(v)).real)

        pts = rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1))
        got = bal.embedding_form_field(state)(pts)
        assert np.max(np.abs(got - complex_hessian(log_kernel, pts))) < 1e-8


# ---------------------------------------------------------------------------
# sigma_z and Q_z
# ---------------------------------------------------------------------------

def dense_qz_oracle(state):
    """Brute-force Q_z on the Veronese curve: loops over generators and
    nodes, tangent projection by explicit Gram-Schmidt."""
    gens = bal.su_basis(state.basis.count)
    vals = state.basis.eval_embedding(state.rule.points)
    jet = state.basis.eval_embedding_jet(state.rule.points)
    t = state.transform
    q = np.zeros((gens.shape[0], gens.shape[0]), dtype=complex)
    for node in range(state.rule.points.shape[0]):
        u = vals[node] @ t
        du = t.T @ jet[1:, node].T
        kk = float(np.real(u @ u.conj()))
        gfs = np.zeros((state.model.n, state.model.n), dtype=complex)
        for a in range(state.model.n):
            for b in range(state.model.n):
                gfs[a, b] = (du[:, a] @ du[:, b].conj()) / kk \
                    - (du[:, a] @ u.conj()) * (u @ du[:, b].conj()) / kk ** 2
        dens = np.linalg.det(gfs).real * 2.0 ** state.model.n \
            / (2.0 * math.pi) ** state.model.n
        # tangent frame of the image: project jets off the cone direction,
        # then orthonormalize
        frame = []
        for a in range(state.model.n):
            w = du[:, a] - (du[:, a] @ u.conj()) / kk * u
            for f in frame:
                w = w - (w @ f.conj()) * f
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                continue
            frame.append(w / norm)
        fields = []
        for xi in gens:
            y = xi @ u
            y = y - (y @ u.conj()) / kk * u
            for f in frame:
                y = y - (y @ f.conj()) * f
            fields.append(y / math.sqrt(kk))
        wq = state.rule.weights[node] * dens
        for a in range(len(gens)):
            for b in range(len(gens)):
                q[a, b] += wq * (fields[a].conj() @ fields[b])
    return q


def normal_field_oracle(state, generators):
    """Q_z from the normal fields themselves, built per node and per
    generator: the field xi u, its cone projection off u, its tangent
    projection off a QR frame of the cone-projected jet columns, then the
    |u|-normalization, paired against the weighted volume density."""
    u, du, kk, _, wq = bal._fs_geometry(state)
    q = np.zeros((len(generators), len(generators)), dtype=complex)
    for node in range(u.shape[0]):
        un, kn = u[node], kk[node]
        tang = du[:, node].T - np.outer(un, un.conj() @ du[:, node].T) / kn
        frame, _ = np.linalg.qr(tang)
        fields = []
        for xi in generators:
            y = xi @ un
            y = y - (un.conj() @ y) / kn * un
            y = y - frame @ (frame.conj().T @ y)
            fields.append(y / math.sqrt(kn))
        fields = np.array(fields)
        q += wq[node] * fields.conj() @ fields.T
    return q


def p1xp1_state(k, gram=None, n_radial=6):
    return bal.embedding_state(TrivialBundleOverPm(1, 2, k), gram=gram,
                               n_radial=n_radial)


class TestSigmaZ:
    def test_matches_normal_field_oracle(self):
        rng = np.random.default_rng(67)
        state = p1xp1_state(2, gram=random_spd(rng, 6), n_radial=4)
        gens = bal.su_basis(6)
        want = normal_field_oracle(state, gens)
        got = bal.sigma_z_operator(state).q_matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        subset = gens[[0, 3, 17, 30, 34]]
        want = normal_field_oracle(state, subset)
        got = bal.sigma_z_operator(state, generators=subset).q_matrix
        assert got.shape == (5, 5)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_trace_is_normal_rank_times_volume(self):
        # sum_a xi_a P xi_a = tr(P) I - P / N over a trace-orthonormal su(N)
        # basis and P u = 0, so tr Q = (N - 1 - n) V = (2k - 1) k on P1 x P1
        k = 2
        report = bal.balance_iterate(p1xp1_state(k), tol=1e-9)
        assert report.converged
        op = bal.sigma_z_operator(report.state)
        want = (2 * k - 1) * k
        assert abs(np.trace(op.q_matrix).real - want) <= 1e-10 * want

    def test_full_system_has_zero_operator(self):
        state = bal.embedding_state(ProjectivePoint(3), n_radial=10)
        op = bal.sigma_z_operator(state)
        assert np.max(np.abs(op.q_matrix)) < 1e-12
        assert op.skipped == 0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(59)
        state = veronese_state(gram=random_spd(rng, 3))
        op = bal.sigma_z_operator(state)
        eigs = np.linalg.eigvalsh(op.q_matrix)
        assert eigs.min() > -1e-10

    def test_veronese_kernel_dimension(self):
        state = veronese_state()
        op = bal.sigma_z_operator(state)
        est = bal.eig_estimate(op)
        assert est.kernel_dim == 3
        assert est.dimension == 8
        assert est.smallest > 0.0

    def test_matches_dense_oracle(self):
        state = veronese_state(n_radial=10)
        op = bal.sigma_z_operator(state)
        want = dense_qz_oracle(state)
        assert np.max(np.abs(op.q_matrix - want)) < 1e-8

    def test_min_eigenvalue_unitary_invariance(self):
        state = veronese_state()
        rng = np.random.default_rng(61)
        u = random_unitary(rng, 3)
        gens = bal.su_basis(3)
        rotated = np.einsum("ij,ajk,kl->ail", u.conj().T, gens, u)
        op1 = bal.sigma_z_operator(state)
        op2 = bal.sigma_z_operator(state, generators=rotated)
        e1 = np.linalg.eigvalsh(op1.q_matrix)
        e2 = np.linalg.eigvalsh(op2.q_matrix)
        assert np.max(np.abs(e1 - e2)) < 1e-10

    @staticmethod
    def svd_frame(tang):
        uf, sv, _ = np.linalg.svd(np.moveaxis(tang, 0, -1),
                                  full_matrices=False)
        return uf, sv[:, -1], sv[:, 0]

    # the frame's inputs: the general path's complex columns, a torus
    # state's real ones, at every dim of the models
    FRAME_INPUTS = [(dim, dtype) for dim in (1, 2, 3)
                    for dtype in (complex, float)]

    @staticmethod
    def normal(rng, dtype, shape):
        if dtype is float:
            return rng.normal(size=shape)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_closed_form_frame_matches_the_svd(self, scale):
        rng = np.random.default_rng(191)
        for dim, dtype in self.FRAME_INPUTS:
            tang = scale * self.normal(rng, dtype, (dim, 200, 12))
            frame, smin, smax = bal._tangent_frame(tang)
            assert frame.dtype == dtype
            uf, want_min, want_max = self.svd_frame(tang)
            proj = frame @ np.conj(np.swapaxes(frame, 1, 2))
            want = uf @ np.conj(np.swapaxes(uf, 1, 2))
            assert np.max(np.abs(proj - want)) <= 1e-13
            assert np.max(np.abs(smin / want_min - 1.0)) <= 1e-13
            assert np.max(np.abs(smax / want_max - 1.0)) <= 1e-13

    @pytest.mark.parametrize("ratio", [1e-6, 1e-11, 1e-13, 0.0])
    def test_closed_form_frame_keeps_the_rank_decisions(self, ratio):
        # the last column follows the first (2 + i, or 2, times it) plus
        # half the second, up to a component orthogonal to the others at
        # `ratio` of the first's length, so sigma_min / sigma_max sits
        # within a factor 2 of ratio / sqrt(5); ratio 0 is an exactly
        # rank-deficient node at every node.  At dim 1 the lone column
        # is that component, so only ratio 0 drops rank
        rng = np.random.default_rng(192)
        for dim, dtype in self.FRAME_INPUTS:
            *lead, w = [self.normal(rng, dtype, (300, 12))
                        for _ in range(dim)]
            follow = 0.0
            if lead:
                basis = np.linalg.qr(np.stack(lead, axis=-1))[0]
                w = w - (basis @ (np.conj(np.swapaxes(basis, 1, 2))
                                  @ w[:, :, None]))[:, :, 0]
                w *= (np.linalg.norm(lead[0], axis=1)
                      / np.linalg.norm(w, axis=1))[:, None]
                follow = (2.0 + 1.0j if dtype is complex else 2.0) * lead[0]
                follow = follow + 0.5 * sum(lead[1:], 0.0)
            tang = np.stack([*lead, follow + ratio * math.sqrt(5.0) * w])
            frame, smin, smax = bal._tangent_frame(tang)
            _, want_min, want_max = self.svd_frame(tang)
            valid = smin > 1e-12 * np.maximum(smax, 1e-30)
            want = want_min > 1e-12 * np.maximum(want_max, 1e-30)
            assert np.array_equal(valid, want), (dim, dtype)
            assert valid.all() == (ratio > (1e-12 if dim > 1 else 0.0))
            assert np.isfinite(frame).all()

    def test_closed_form_frame_has_no_nan_at_zero_columns(self):
        # three nodes: every column zero; a zero first column; the first
        # two columns parallel.  The third column is zero at every node
        tang = np.zeros((3, 3, 5))
        tang[1, 1, 2] = 1.0
        tang[:2, 2, 0] = 1.0, 2.0
        for dim, dtype in self.FRAME_INPUTS:
            frame, smin, smax = bal._tangent_frame(tang[:dim].astype(dtype))
            assert np.isfinite(frame).all()
            if dim == 1:  # the lone first column: 0, 0 and 1 long
                assert np.array_equal(smin, [0.0, 0.0, 1.0])
                assert np.array_equal(smax, smin)
            else:
                assert np.array_equal(smin, np.zeros(3))
                assert np.allclose(smax, [0.0, 1.0, math.sqrt(5.0)])

    def test_rank_deficient_node_skipped_with_count(self, caplog):
        # sub-system {1, z^2} of O(2) branches at z = 0: the jet drops rank
        model = LineBundleSumOverP1((0,), 2)
        basis = SectionBasis(model, np.array([0, 0]),
                             np.array([[0], [2]], dtype=int))
        rule = ChartRule(np.array([[0.0], [0.4]], dtype=complex),
                         np.array([0.5, 0.5]))
        state = bal.embedding_state(model, basis=basis, rule=rule)
        with caplog.at_level(logging.WARNING, logger="projbalance.balancing"):
            op = bal.sigma_z_operator(state)
        assert op.skipped == 1
        assert any("rank" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# lambda_z scaling
# ---------------------------------------------------------------------------

def spectrum_sweep(ks, n_radial, **model):
    """lambda_z per level and its growth exponent, from the moment-spectrum
    suite's per-level job and assembly at balance tolerance 1e-9."""
    cfg = ExperimentConfig(k_min=min(ks), k_max=max(ks), n_radial=n_radial,
                           balance_tol=1e-9, **model)
    results = [suites.spectrum_job(cfg, k) for k in cfg.ks]
    _, exponent = suites.spectrum_assemble(cfg, results)
    return [res["lambda_z"] for res in results], exponent


class TestLambdaZScaling:
    def test_point_base_constant_in_k(self):
        lam, _ = spectrum_sweep((1, 2, 3), 8, kind="point", rank=2)
        lam = np.array(lam)
        assert np.max(np.abs(lam - lam[0])) < 1e-8 * max(1.0, abs(lam[0]))

    def test_projective_line_table(self):
        lam, exponent = spectrum_sweep(range(1, 6), 10, degrees=(0,))
        assert lam[0] == 0.0  # k=1: identity embedding, no normal directions
        used = np.array(lam[1:])
        assert np.all(np.diff(used) > 0.0)
        assert exponent <= 4.5

    def test_doubling_quadrature_is_stable(self):
        l1, _ = spectrum_sweep((2, 3, 4), 10, degrees=(0,))
        l2, _ = spectrum_sweep((2, 3, 4), 20, degrees=(0,))
        l1, l2 = np.array(l1), np.array(l2)
        assert np.max(np.abs(l1 - l2) / l2) < 0.01

    def test_fit_exponent_recovers_exact_power(self):
        ks = (1, 2, 3, 4)
        lams = [0.0, 8.0, 27.0, 64.0]  # zero sentinel excluded, cubic rest
        assert abs(bal.lambda_fit_exponent(ks, lams) - 3.0) < 1e-12

    def test_fit_exponent_nan_without_positive_levels(self):
        assert math.isnan(bal.lambda_fit_exponent((1, 2, 3), [0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# the torus rule
# ---------------------------------------------------------------------------

TORUS_MODELS = {"p1xp1": TrivialBundleOverPm(1, 2, 3),
                "p1-sum-0-1": LineBundleSumOverP1((0, 1), 3)}


def torus_base_angles(model):
    """Angles per base coordinate of `torus_rule`: 2 D + 1."""
    return 2 * bal.torus_degree(model) + 1


def torus_rule(model, n_radial):
    """The full angular rule sized by the degree of a torus-invariant
    state's integrands, the oracle of `balancing.torus_orbit_rule` and of
    the charge blocks of `balancing.sigma_z_operator`: 2 D + 1 angles per
    base coordinate (D = `balancing.torus_degree`), 3 per fiber
    coordinate, and the plain rule's `n_radial` radial nodes on each
    factor.  An entry of the operator's node sum pairs four sections, of
    frequency at most 2 D in each base angle and 2 in each fiber angle,
    and n trapezoid angles are exact below frequency n (derivation in
    `sigma_z_operator`)."""
    return product_rule(
        base_rule(model, n_radial, n_angular=torus_base_angles(model)),
        fiber_rule(model, n_radial, n_angular=3))


@pytest.fixture(scope="module")
def torus_states():
    """Per model: the identity-Gram state on `torus_rule` at n_radial 10,
    the state its balancing ends at, and the balancing report.  P(O + O(1))
    has no torus-invariant balanced metric, so there the solver stops at
    the obstruction, still on a diagonal Gram."""
    states = {}
    for key, model in TORUS_MODELS.items():
        state = bal.embedding_state(model, rule=torus_rule(model, 10))
        report = bal.balance_iterate(state, tol=1e-12, max_iter=60)
        states[key] = state, report.state, report
    return states


def torus_quantities(state):
    return {"moment": bal.moment_map(state).matrix,
            "t_step": bal.t_map_step(state).gram.matrix,
            "q_matrix": bal.sigma_z_operator(state).q_matrix}


class TestTorusRule:
    """`torus_rule` integrates the moment, the T-step pairing and the
    normal-action operator of a torus-invariant state exactly in every
    angle, so it reproduces the plain rule's 21 angles per coordinate on
    the same radial nodes; one angle fewer on either factor does not."""

    @pytest.mark.parametrize("solved", [False, True],
                             ids=["identity", "solved"])
    @pytest.mark.parametrize("key", sorted(TORUS_MODELS))
    def test_agrees_with_the_plain_rule(self, torus_states, key, solved):
        model = TORUS_MODELS[key]
        state = torus_states[key][solved]
        plain = bal.embedding_state(model, gram=state.gram.matrix,
                                    n_radial=10)
        assert plain.rule.points.shape[0] == 44100
        assert state.rule.points.shape[0] == 10 * (
            2 * (3 + max(model.degrees)) + 1) * 10 * 3
        ours, theirs = torus_quantities(state), torus_quantities(plain)
        for name in ours:
            assert np.max(np.abs(ours[name] - theirs[name])) < 1e-13, name

    @pytest.mark.parametrize("solved", [False, True],
                             ids=["identity", "solved"])
    @pytest.mark.parametrize("key", sorted(TORUS_MODELS))
    def test_one_angle_fewer_moves_the_operator(self, torus_states, key,
                                                solved):
        model = TORUS_MODELS[key]
        state = torus_states[key][solved]
        q = bal.sigma_z_operator(state).q_matrix
        angles = torus_base_angles(model)
        for base, fiber in ((angles - 1, 3), (angles, 2)):
            rule = product_rule(base_rule(model, 10, n_angular=base),
                                fiber_rule(model, 10, n_angular=fiber))
            short = bal.embedding_state(model, gram=state.gram.matrix,
                                        rule=rule)
            move = np.max(np.abs(bal.sigma_z_operator(short).q_matrix - q))
            assert move > 1e-3, (base, fiber)

    def test_degree_and_angles(self):
        model = LineBundleSumOverP1((0, 2), 4)
        assert bal.torus_degree(model) == 6
        assert torus_base_angles(model) == 13

    def test_diagonal_gram_passes_the_guard(self, torus_states):
        model = TORUS_MODELS["p1xp1"]
        assert bal.torus_invariance_guard(np.diag([1.0, 2.0, 3.0]), model,
                                          "Gram") == 0.0
        solved = torus_states["p1xp1"][1].gram.matrix
        assert bal.torus_invariance_guard(solved, model, "Gram") < 1e-13

    def test_off_diagonal_gram_trips_the_guard(self):
        model = TORUS_MODELS["p1xp1"]
        gram = np.eye(8)
        gram[0, 5] = gram[5, 0] = 2e-6
        with pytest.raises(NumericalGuardError) as err:
            bal.torus_invariance_guard(gram, model, "solved Gram")
        message = str(err.value)
        assert "torus rule on p1-sum(0, 0)-k3" in message
        assert "solved Gram's largest off-diagonal entry is 2.00e-06" in message
        assert "torus-invariant" in message

    def test_balance_job_guards_the_solved_gram(self, monkeypatch):
        # the jobs balance torus states, whose with_gram guards every Gram
        original = bal.balance_iterate
        ratios = []

        def off_torus(state, **kwargs):
            report = original(state, **kwargs)
            gram = report.state.gram.matrix.copy()
            gram[0, 1] += 1e-9
            gram[1, 0] += 1e-9
            ratios.append(1e-9 / np.max(np.abs(np.diagonal(gram))))
            return replace(report, state=report.state.with_gram(gram))

        monkeypatch.setattr(bal, "balance_iterate", off_torus)
        cfg = ExperimentConfig(kind="pm-trivial", k_min=2, k_max=2,
                               n_radial=6)
        tables, _ = suites.sweep_tables(cfg)
        for job in (functools.partial(suites.balance_job, tables=tables),
                    suites.spectrum_job):
            with pytest.raises(NumericalGuardError) as err:
                job(cfg, 2)
            assert (f"Gram's largest off-diagonal entry is {ratios[-1]:.2e}"
                    in str(err.value))

    def test_self_check_moves_by_roundoff(self, torus_states):
        # at the orbit state the runs check: diagonal pairings and the
        # operator's charge blocks against the full angular rule, here on
        # P^1 x P^1 and on P^2 x P^1 balanced on its own orbit rule
        solved = torus_states["p1xp1"][1]
        p1xp1 = bal.embedding_state(
            solved.model, gram=solved.gram.matrix,
            rule=bal.torus_orbit_rule(solved.model, 10))
        p2xp1 = TrivialBundleOverPm(2, 2, 3)
        start = bal.embedding_state(p2xp1,
                                    rule=bal.torus_orbit_rule(p2xp1, 6))
        p2xp1 = bal.balance_iterate(start, tol=1e-10, max_iter=100).state
        for state in (p1xp1, p2xp1):
            for quantity in (lambda s: bal.moment_map(s).matrix,
                             lambda s: bal.sigma_z_operator(s).q_matrix):
                assert bal.torus_rule_check(state, quantity) < 1e-13

    def test_wrong_character_mask_trips_the_self_check(self, monkeypatch):
        # one sector holding every pair sums the nonzero-character entries
        # at angle 0 instead of dropping them
        monkeypatch.setattr(bal, "_charge_sectors",
                            lambda basis: [np.arange(basis.count ** 2)])
        cfg = ExperimentConfig(kind="pm-trivial", k_min=2, k_max=3,
                               n_radial=6, balance_tol=1e-9)
        suites.spectrum_job(cfg, 3)  # above k_min: no check
        with pytest.raises(NumericalGuardError) as err:
            suites.spectrum_job(cfg, 2)
        message = str(err.value)
        assert "torus rule on p1-sum(0, 0)-k2" in message
        assert "from 1 to 7 angles per base coordinate" in message
        assert "from 1 to 5 per fiber coordinate" in message
        assert "D = 2" in message

    def test_degree_zero_trips_the_moment_check(self, monkeypatch):
        model = TORUS_MODELS["p1xp1"]
        monkeypatch.setattr(bal, "torus_degree", lambda model: 0)
        state = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        with pytest.raises(NumericalGuardError,
                           match="from 1 to 3 angles per base coordinate"):
            bal.torus_rule_check(state, lambda s: bal.moment_map(s).matrix)

    @pytest.mark.parametrize("model", [
        LineBundleSumOverP1((0,), 2), TrivialBundleOverPm(1, 2, 3),
        LineBundleSumOverP1((0, 1), 3), TrivialBundleOverPm(2, 2, 2),
        ProjectiveSpaceBase(2, (0,), 2), ProjectivePoint(3)],
        ids=lambda model: model.label)
    def test_checked_rule_is_three_angular_orbits(self, monkeypatch, model):
        # the first, middle and last orbit, each on 2 D + 3 angles per base
        # and 5 per fiber coordinate, its angle weights summing to its
        # orbit weight
        built = []

        def spy(orbits, model, base_angles):
            rule = original(orbits, model, base_angles)
            built.append((orbits, rule))
            return rule

        original = bal._orbit_angles
        monkeypatch.setattr(bal, "_orbit_angles", spy)
        full = bal.torus_orbit_rule(model, 5)
        state = bal.embedding_state(model, rule=full)
        bal.torus_rule_check(state, lambda s: bal.moment_map(s).matrix)
        [(orbits, rule)] = built
        n = full.weights.shape[0]
        picks = sorted({0, n // 2, n - 1})
        np.testing.assert_array_equal(orbits.points, full.points[picks])
        np.testing.assert_array_equal(orbits.weights, full.weights[picks])
        angles = ((2 * bal.torus_degree(model) + 3) ** model.m
                  * 5 ** model.fiber_dim)
        assert rule.points.shape == (len(picks) * angles, model.n)
        sums = rule.weights.reshape(len(picks), angles).sum(axis=1)
        assert np.all(np.abs(sums - orbits.weights) <= 1e-15 * orbits.weights)
        # each angle node lies on its orbit: the moduli of the orbit node
        moduli = np.abs(rule.points).reshape(len(picks), angles, model.n)
        np.testing.assert_allclose(
            moduli, np.broadcast_to(orbits.points.real[:, None], moduli.shape),
            rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("fault", ["degree-zero", "wrong-character"])
    def test_each_checked_orbit_trips_the_faults(self, monkeypatch,
                                                 torus_states, fault):
        # the character argument holds orbit by orbit, so each checked
        # orbit alone sees either fault
        solved = torus_states["p1xp1"][1]
        state = bal.embedding_state(
            solved.model, gram=solved.gram.matrix,
            rule=bal.torus_orbit_rule(solved.model, 6))
        if fault == "degree-zero":
            monkeypatch.setattr(bal, "torus_degree", lambda model: 0)
            quantity = lambda s: bal.moment_map(s).matrix  # noqa: E731
        else:
            monkeypatch.setattr(bal, "_charge_sectors",
                                lambda basis: [np.arange(basis.count ** 2)])
            quantity = lambda s: bal.sigma_z_operator(s).units  # noqa: E731
        picks = bal._checked_orbits(state)
        assert picks == [0, 18, 35]
        for pick in picks:
            monkeypatch.setattr(bal, "_checked_orbits",
                                lambda state, pick=pick: [pick])
            with pytest.raises(NumericalGuardError,
                               match="on 1 of 36 radial orbits"):
                bal.torus_rule_check(state, quantity)

    def test_spectrum_job_ends_on_the_solved_state(self, monkeypatch):
        # the k_min self-check runs before the level's own operator, so
        # the level's last operator call (the one the benchmark's tracer
        # keeps per level) is on the solved state and the run's full
        # orbit rule, not on the check's three orbits
        calls = []

        def spy(state, generators=None):
            calls.append(state)
            return original(state, generators)

        original = bal.sigma_z_operator
        monkeypatch.setattr(bal, "sigma_z_operator", spy)
        cfg = ExperimentConfig(kind="pm-trivial", k_min=2, k_max=3,
                               n_radial=6, balance_tol=1e-9)
        suites.spectrum_job(cfg, 2)
        assert len(calls) == 3
        full = bal.torus_orbit_rule(build_model(cfg, 2), 6)
        last = calls[-1]
        assert last.torus
        np.testing.assert_array_equal(last.rule.points, full.points)
        assert bal.moment_map(last).norm_op < 1e-9
        assert [call.rule.points.shape[0] for call in calls[:2]] == [
            3 * 7 * 5, 3]


class TestTorusOrbitRule:
    """A torus state, on `torus_orbit_rule` with diagonal pairings, gives
    what the same Gram gives on `torus_rule`, the full angular rule whose
    radial nodes it keeps: the off-diagonal pairings of a torus-invariant
    state vanish and the diagonal ones are constant on the orbits."""

    def test_one_node_per_orbit_with_the_orbit_weight(self):
        model = TORUS_MODELS["p1-sum-0-1"]
        full = torus_rule(model, 10)
        orbit = bal.torus_orbit_rule(model, 10)
        assert orbit.points.shape == (100, 2)
        # the nodes of `torus_rule` at angle 0 in every coordinate
        at_zero = np.all(np.abs(np.angle(full.points)) < 1e-15, axis=1)
        assert np.array_equal(full.points[at_zero], orbit.points)
        orbit_size = torus_base_angles(model) * 3
        assert np.allclose(orbit_size * full.weights[at_zero],
                           orbit.weights, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("solved", [False, True],
                             ids=["identity", "solved"])
    @pytest.mark.parametrize("key", sorted(TORUS_MODELS))
    def test_matches_the_torus_rule(self, torus_states, key, solved):
        model = TORUS_MODELS[key]
        full = torus_states[key][solved]
        orbit = bal.embedding_state(model, gram=full.gram.matrix,
                                    rule=bal.torus_orbit_rule(model, 10))
        for quantity in (lambda s: bal.moment_map(s).matrix,
                         lambda s: bal.t_map_step(s).gram.matrix):
            assert np.max(np.abs(quantity(orbit) - quantity(full))) < 1e-13
        ours = bal.balanced_density_stats(orbit)
        theirs = bal.balanced_density_stats(full)
        for name in ours:
            assert abs(ours[name] - theirs[name]) < 1e-13, name

    @pytest.mark.parametrize("key", sorted(TORUS_MODELS))
    def test_balances_as_the_torus_rule(self, torus_states, key):
        # the Newton solve on the orbit rule against the plain T-iteration
        # on the full angular rule; the two solvers may stop at Grams an
        # automorphism apart, so they are compared by what the gauge
        # leaves alone
        model = TORUS_MODELS[key]
        full = torus_states[key][2]
        orbit = bal.balance_iterate(
            bal.embedding_state(model, rule=bal.torus_orbit_rule(model, 10)),
            tol=1e-12, max_iter=60)
        ours = orbit.state.gram.matrix
        assert np.array_equal(ours, np.diag(np.diagonal(ours)))
        if key == "p1-sum-0-1":
            # P(O + O(1)) has no balanced metric: both stop short of it
            assert not orbit.converged and not full.converged
            assert orbit.diverged and full.diverged
            return
        assert orbit.converged and full.converged
        assert_same_gauge_invariants(orbit.state, full.state, tol=1e-12)
        assert orbit.iterations < full.iterations / 5

    def test_off_diagonal_gram_is_refused(self):
        model = TORUS_MODELS["p1xp1"]
        gram = np.eye(8)
        gram[0, 5] = gram[5, 0] = 2e-6
        ratio = "Gram's largest off-diagonal entry is 2.00e-06"
        orbit = bal.torus_orbit_rule(model, 6)
        with pytest.raises(NumericalGuardError, match=ratio):
            bal.embedding_state(model, gram=gram, rule=orbit)
        state = bal.embedding_state(model, rule=orbit)
        with pytest.raises(NumericalGuardError, match=ratio):
            state.with_gram(gram)
        # any other rule integrates every entry, so it takes the Gram
        assert not bal.embedding_state(model, gram=gram,
                                       rule=torus_rule(model, 6)).torus

    def test_the_rule_makes_the_torus_state(self):
        # the orbit rule given as `rule=` once built a general-path state
        # on orbit nodes, whose moment read 1.82 on this model
        model = TORUS_MODELS["p1xp1"]
        orbit = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        plain = bal.embedding_state(model, n_radial=6)
        assert orbit.torus and not plain.torus
        ours, theirs = bal.moment_map(orbit), bal.moment_map(plain)
        assert np.max(np.abs(ours.matrix - theirs.matrix)) < 1e-12
        assert ours.norm_op == pytest.approx(0.10782, abs=1e-5)


def raise_on_factorization(monkeypatch):
    """Make `np.linalg.eigh`, `eigvalsh` and `det` raise."""
    for name in ("eigh", "eigvalsh", "det"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        monkeypatch.setattr(np.linalg, name, refuse)


class TestTorusTable:
    """A torus state reads its kernel, gradient and jet pairing off one
    table of section-jet products per rule (`EmbeddingState._table`), in
    one GEMV with the inverse weights, and its raw pairing diagonal in a
    second: the same numbers as the frame path (`_fs_geometry`,
    `_frame_sums`, `_pullback_data`), and the same guards."""

    MODELS = {"p1-o3": LineBundleSumOverP1((0,), 3),
              "p1xp1": TrivialBundleOverPm(1, 2, 3),
              "p2xp1": TrivialBundleOverPm(2, 2, 2)}

    @staticmethod
    def close(got, want):
        scale = np.max(np.abs(want))
        return np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("key", sorted(MODELS))
    def test_table_matches_the_frame_path(self, key, seed):
        model = self.MODELS[key]
        state = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        assert state.model.n == {"p1-o3": 1, "p1xp1": 2, "p2xp1": 3}[key]
        rng = np.random.default_rng(seed)
        state = state.with_gram(rng.uniform(0.2, 5.0, state.count))
        kk, grad, gfs, wq = state._torus_geometry
        u, du = bal._fs_geometry(state)[:2]
        fkk, fgrad, fpair = bal._frame_sums(u, du)
        assert self.close(kk, fkk) and self.close(grad, fgrad)
        fgfs, fdens = bal._pullback_data(fkk, fgrad, fpair)
        assert gfs.shape == fgfs.shape == (len(kk), model.n, model.n)
        assert self.close(gfs, fgfs)
        fwq = state.rule.weights * fdens
        assert self.close(wq, fwq)
        # the moment and both pairings, against the frame path's diagonals
        mv, frame, raw = state._pairings
        weights = fwq / fkk
        assert self.close(frame, np.real(np.diagonal(l2_pairing(u, weights))))
        assert self.close(raw, np.real(np.diagonal(
            l2_pairing(state.values, weights))))
        assert mv.volume == pytest.approx(fwq.sum(), rel=1e-13, abs=0.0)
        want_moment = np.diag(frame - fwq.sum() / state.count)
        assert self.close(mv.matrix, want_moment)
        assert mv.norm_op == pytest.approx(
            np.max(np.abs(want_moment)), rel=1e-12, abs=1e-15)
        assert mv.norm_fro == pytest.approx(
            np.linalg.norm(want_moment), rel=1e-12, abs=1e-15)

    def test_copies_share_one_table(self):
        model = self.MODELS["p1xp1"]
        state = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        table = state._table
        moved = state.with_gram(np.linspace(1.0, 2.0, state.count))
        assert moved._table is table
        assert not table[0].flags.writeable and not table[1].flags.writeable
        # a dataclass copy starts without it, so a replaced jet never
        # reads a stale one
        assert "_table" not in vars(replace(state, gram=state.gram))

    @staticmethod
    def both_paths(rule, basis=None, gram=None):
        """The guard message of the moment of one Gram on one rule, once
        at a torus state (its table) and once at a `GramMatrix` state
        (frame row sums)."""
        model = LineBundleSumOverP1((0,), 2)
        messages = []
        for torus in (True, False):
            kind = bal.OrbitRule if torus else ChartRule
            state = bal.embedding_state(
                model, rule=kind(rule.points, rule.weights), basis=basis,
                gram=np.diag(gram) if gram is not None else None)
            assert state.torus is torus
            with pytest.raises(NumericalGuardError) as err:
                bal.moment_map(state)
            messages.append(str(err.value))
        return messages

    def test_a_vanishing_kernel_trips_on_both_paths(self):
        # {z, z^2} vanish together at z = 0, the first node of the rule
        model = LineBundleSumOverP1((0,), 2)
        basis = SectionBasis(model, np.array([0, 0]), np.array([[1], [2]]))
        rule = ChartRule(points=np.array([[0.0], [0.5]], dtype=complex),
                         weights=np.ones(2))
        torus, general = self.both_paths(rule, basis=basis)
        assert torus == general
        assert "kernel vanished at node 0 of 2" in torus
        assert "|u|^2 = 0.000e+00" in torus

    def test_a_negative_density_trips_on_both_paths(self, monkeypatch):
        # the determinant is nonnegative in exact arithmetic; negate it
        monkeypatch.setattr(bal, "hermitian_det",
                            lambda stack: -stack[..., 0, 0].real)
        rule = ChartRule(points=np.array([[0.5], [1.5]], dtype=complex),
                         weights=np.ones(2))
        torus, general = self.both_paths(rule,
                                         gram=np.array([1.0, 2.0, 3.0]))
        assert torus == general
        assert "embedding volume density -" in torus
        assert "at node 0 of 2 not nonnegative" in torus


class TestTorusWeights:
    """A torus state holds its Gram as N weights c (`DiagonalGram`): the
    whitener c^(-1/2) broadcasts, the moment is the pairing diagonal less
    V/N, the det gauge is the geometric mean and the Newton step moves
    log c, so the solver factors no Gram; every guard keeps its
    message."""

    @pytest.mark.parametrize("model, n_radial, tol", [
        (TrivialBundleOverPm(1, 2, 3), 6, 1e-8),
        (LineBundleSumOverP1((0,), 5), 10, 1e-9),
    ], ids=["p1xp1-k3", "moment-spectrum-default-k5"])
    def test_solver_makes_no_eigh_eigvalsh_or_det(self, monkeypatch, model,
                                                 n_radial, tol):
        # the Gauss nodes of the rule come from an eigvalsh
        rule = bal.torus_orbit_rule(model, n_radial)
        raise_on_factorization(monkeypatch)
        state = bal.embedding_state(model, rule=rule)
        report = bal.balance_iterate(state, tol=tol,
                                     max_iter=suites._MAX_ITER)
        assert report.converged and report.iterations > 0
        assert isinstance(report.state.gram, DiagonalGram)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_weight_solve_matches_the_general_path(self, k):
        # from the identity, Newton on the orbit rule and the plain
        # T-iteration on the full angular rule, where every entry of a
        # full Gram is integrated, compared by the gauge invariants
        model = TrivialBundleOverPm(1, 2, k)
        weights = bal.balance_iterate(
            bal.embedding_state(model, rule=bal.torus_orbit_rule(model, 6)),
            tol=1e-10, max_iter=100)
        trajectory, full = plain_t_iteration(
            bal.embedding_state(model, rule=torus_rule(model, 6)), tol=1e-10,
            max_iter=100)
        assert isinstance(weights.state.gram, DiagonalGram)
        assert not isinstance(full.gram, DiagonalGram)
        assert weights.converged and trajectory[-1][1] < 1e-10
        assert weights.fallback_steps == 0
        assert_same_gauge_invariants(weights.state, full, tol=1e-10)

    def test_the_rule_picks_the_form(self):
        model = TORUS_MODELS["p1xp1"]
        c = np.linspace(0.5, 2.0, 8)
        orbit = bal.embedding_state(model, gram=np.diag(c),
                                    rule=bal.torus_orbit_rule(model, 6))
        assert isinstance(orbit.gram, DiagonalGram)
        assert np.array_equal(orbit.gram.weights, c)
        assert np.array_equal(orbit.transform, np.diag(1.0 / np.sqrt(c)))
        plain = bal.embedding_state(model, gram=orbit.gram, n_radial=6)
        assert isinstance(plain.gram, GramMatrix)
        assert np.array_equal(plain.gram.matrix, np.diag(c))
        assert orbit.with_gram(c).gram.condition() == 4.0

    @pytest.mark.parametrize("weights, message", [
        ([1.0, np.nan], "Gram matrix has non-finite entries"),
        ([1.0, np.inf], "Gram matrix has non-finite entries"),
        ([1.0, -1.0], "Gram not positive definite (smallest eigenvalue "
                      "-1.000e+00)"),
        ([1.0, 0.0], "Gram not positive definite (smallest eigenvalue "
                     "0.000e+00)"),
        ([1.0, 1e-13], "Gram condition number 1.000e+13 exceeds 1.0e+12"),
    ], ids=["nan", "inf", "negative", "zero", "ill-conditioned"])
    def test_weight_guards_keep_their_messages(self, weights, message):
        model = TORUS_MODELS["p1xp1"]
        c = np.array(weights + [1.0] * 6)
        with pytest.raises(NumericalGuardError) as want:
            make_gram(np.diag(c)).whitener()
        assert message in str(want.value)
        orbit = bal.torus_orbit_rule(model, 6)
        state = bal.embedding_state(model, rule=orbit)
        for build in (lambda: bal.embedding_state(model, gram=c, rule=orbit),
                      lambda: state.with_gram(c),
                      lambda: state.with_gram(np.diag(c))):
            with pytest.raises(NumericalGuardError) as got:
                build()
            assert str(got.value) == str(want.value)

    def test_whitener_defect_guard(self, monkeypatch):
        # a root 1% off scales c^(-1/2) c c^(-1/2) by 1/1.01^2
        real = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda x: 1.01 * real(x))
        with pytest.raises(NumericalGuardError,
                           match="orthonormalizing transform defect "
                                 "1.97e-02"):
            make_gram(np.array([1.0, 2.0, 3.0])).whitener()

    def test_balance_job_guards_the_reference_gram(self, monkeypatch):
        # the direct route's Gram enters a torus state in balance_job
        original = bg.direct_gram

        def off_torus(model, table):
            gram = original(model, table).matrix.copy()
            gram[0, 1] += 1e-6 * gram[0, 0]
            gram[1, 0] = np.conj(gram[0, 1])
            return make_gram(gram)

        monkeypatch.setattr(bg, "direct_gram", off_torus)
        cfg = ExperimentConfig(kind="pm-trivial", k_min=2, k_max=2,
                               n_radial=6)
        tables, _ = suites.sweep_tables(cfg)
        with pytest.raises(NumericalGuardError,
                           match="Gram's largest off-diagonal entry"):
            suites.balance_job(cfg, 2, tables)


def orbit_state(model, gram, n_radial=6):
    """The state on `torus_orbit_rule` at the solved Gram ("solved") or at
    a random diagonal one ("random-<seed>")."""
    state = bal.embedding_state(model,
                                rule=bal.torus_orbit_rule(model, n_radial))
    if gram == "solved":
        return bal.balance_iterate(state, tol=1e-10, max_iter=60).state
    rng = np.random.default_rng(int(gram.rsplit("-", 1)[1]))
    return state.with_gram(rng.uniform(0.2, 5.0, state.count))


def block_spectrum(op):
    """The union of the spectra of an operator's blocks, ascending, less
    the identity's zero, the eigenvalue nearest 0."""
    eigs = np.sort(np.concatenate(
        [np.linalg.eigvalsh(q).ravel() for _, q in op.charges]))
    return np.delete(eigs, np.argmin(np.abs(eigs)))


OPERATOR_MODELS = {**TORUS_MODELS,
                   "p1-o3": LineBundleSumOverP1((0,), 3),
                   "p2-sum-0-0": ProjectiveSpaceBase(2, (0, 0), 2),
                   "p1-sum-0-0-1": LineBundleSumOverP1((0, 0, 1), 2),
                   "point-rank3": ProjectivePoint(3)}


_BENCH_P1XP1 = dict(kind="pm-trivial", rank=2, base_dim=1, n_radial=6)

NEWTON_SWEEPS = {
    "bench-balance": ExperimentConfig(k_min=2, k_max=6, **_BENCH_P1XP1),
    "bench-spectrum": ExperimentConfig(k_min=2, k_max=5, balance_tol=1e-9,
                                       **_BENCH_P1XP1),
    "balance-default": default_config("balance"),
    "moment-spectrum-default": default_config("moment-spectrum"),
}


def branch_orbit_state():
    """Sub-system {1, z^2} of O(2) on two orbit nodes: it branches at
    z = 0, where the jet drops rank and the tangent Gram vanishes."""
    model = LineBundleSumOverP1((0,), 2)
    basis = SectionBasis(model, np.array([0, 0]),
                         np.array([[0], [2]], dtype=int))
    rule = bal.OrbitRule(np.array([[0.0], [0.4]], dtype=complex),
                         np.array([0.5, 0.5]))
    return bal.embedding_state(model, basis=basis, rule=rule)


def diagonal_pairs(state):
    """The charge-0 sector: the N diagonal pairs (i, i), flat i N + i."""
    return np.arange(state.count) * (state.count + 1)


class TestNewton:
    """A torus state balances by damped Newton on x = log c against Q_0,
    the charge-0 block of the normal-action operator (`_charge_blocks` on
    the diagonal pairs), whose kernel is span{1, w}."""

    @pytest.mark.parametrize("model", [
        TrivialBundleOverPm(1, 2, 3), LineBundleSumOverP1((0, 1), 4),
        TrivialBundleOverPm(2, 2, 3)], ids=lambda model: model.label)
    def test_q0_is_the_charge_zero_block(self, model):
        # the oracle is the general path on a plain copy of the same nodes
        # and Gram: its one node sum, on the orthonormal tangent frame of
        # each node, with the kernel and density summed on the frame too,
        # holds every sector's block among its entries
        state = orbit_state(model, "random-5")
        plain = bal.embedding_state(
            model, gram=state.gram.matrix, basis=state.basis,
            rule=ChartRule(state.rule.points, state.rule.weights))
        whole = bal.sigma_z_operator(plain).units
        scale = np.max(np.abs(whole))
        op = bal.sigma_z_operator(state)
        for pairs, blocks in op.charges:
            want = whole[pairs[:, :, None], pairs[:, None, :]]
            assert np.max(np.abs(blocks - want)) <= 1e-13 * scale
        [(_, [got])], valid = bal._charge_blocks(state,
                                                 [diagonal_pairs(state)])
        assert valid.all()
        [block] = [q for pairs, blocks in op.charges
                   for sector, q in zip(pairs, blocks) if sector[0] == 0]
        assert np.max(np.abs(got - block)) <= 1e-14 * scale
        # the kernel is span{1, w} and nothing more
        span = np.column_stack([np.ones(state.count),
                                state.basis.chart_exponents])
        assert np.max(np.abs(got @ span)) <= 1e-13 * np.max(np.abs(got))
        eigs = np.linalg.eigvalsh(got)
        rank = state.count - span.shape[1]
        assert np.sum(eigs > 1e-3 * eigs[-1]) == rank

    @pytest.mark.parametrize("k, condition", [(3, 6.0), (4, 12.0)])
    def test_p2xp1_lands_on_the_closed_form(self, k, condition):
        # the balanced Gram of P^2 x P^1 is the L2 Gram of the
        # Fubini-Study metric, c_beta proportional to 1/multinomial(k;
        # k - |beta|, beta); log c of it is orthogonal to span{1, w} up to
        # its scale, by the symmetry of the homogeneous coordinates, so
        # the Newton slice holds it exactly, and the condition number is
        # the largest multinomial coefficient
        model = TrivialBundleOverPm(2, 2, k)
        report = bal.balance_iterate(
            bal.embedding_state(model, rule=bal.torus_orbit_rule(model, 8)),
            tol=1e-12, max_iter=suites._MAX_ITER)
        assert report.converged
        beta = report.state.basis.chart_exponents[:, :2]
        want = np.array([
            math.factorial(k - b0 - b1) * math.factorial(b0)
            * math.factorial(b1) / math.factorial(k) for b0, b1 in beta])
        want /= math.exp(np.log(want).mean())
        got = report.state.gram.weights
        assert np.max(np.abs(got / want - 1.0)) < 1e-9
        assert report.state.gram.condition() == pytest.approx(condition,
                                                              rel=1e-9)

    @pytest.mark.parametrize("key", sorted(NEWTON_SWEEPS))
    def test_every_level_of_a_run_takes_at_most_eight_steps(self, key):
        cfg = NEWTON_SWEEPS[key]
        for k in cfg.ks:
            _, report, _ = suites._balanced_level(cfg, k)
            assert report.converged, k
            assert report.iterations <= 8 and report.fallback_steps == 0, k

    def test_residuals_fall_quadratically(self):
        # measured on P^1 x P^1 at k = 5: 3.2e-3, 5.1e-5, 1.3e-8, so
        # r_(i+1) / r_i^2 reads 5.0 over each of the last two steps, where
        # a linear rate as fast as 0.1 would read 1,960 on the last
        model = TrivialBundleOverPm(1, 2, 5)
        report = bal.balance_iterate(
            bal.embedding_state(model, rule=bal.torus_orbit_rule(model, 6)),
            tol=1e-7)
        assert report.converged and report.fallback_steps == 0
        last = [row[1] for row in report.trajectory[-3:]]
        assert last[-1] > 1e-12  # above roundoff, so the rate is visible
        for before, after in zip(last, last[1:]):
            assert after <= 10.0 * before ** 2

    def test_a_step_reads_no_eigh_and_no_geometry(self, monkeypatch):
        state = orbit_state(TrivialBundleOverPm(1, 2, 3), "random-7")
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        seen = count_geometry_passes(monkeypatch)
        step = bal._NewtonStepper(state.basis)(state)
        assert (bal.moment_map(step).norm_fro
                < bal.moment_map(state).norm_fro)
        assert eigh == [] and seen == []

    def test_a_torus_state_pulls_back_once(self, monkeypatch):
        # the pairings, Q_0, the operator's blocks and the density all
        # read the state's one `_torus_geometry`, and none makes an
        # `_fs_geometry` pass
        state = orbit_state(TrivialBundleOverPm(1, 2, 3), "random-3")
        pulls = count_calls(monkeypatch, bal, "_pullback_data")
        sums = count_calls(monkeypatch, bal, "_frame_sums")
        seen = count_geometry_passes(monkeypatch)
        bal.moment_map(state)
        bal._charge_blocks(state, [diagonal_pairs(state)])
        bal.sigma_z_operator(state)
        bal.balanced_density_stats(state)
        assert len(pulls) == 1 and sums == [] and seen == []

    @pytest.mark.parametrize("job", ["balance", "spectrum"])
    def test_bench_jobs_take_the_frame_path_only_for_the_self_check(
            self, monkeypatch, job):
        # what the benchmark's tracer counts as geometry passes: at k_min
        # of the bench configs the one `_fs_geometry` pass is the torus
        # self-check's full angular state, three orbits on 2 D + 3 = 7
        # base and 5 fiber angles.  The tangent frame is the two paths'
        # one formula: every `_charge_blocks` call takes one, and the
        # general path's node sum takes one for the self-check alone
        cfg = NEWTON_SWEEPS[f"bench-{job}"]
        seen = count_geometry_passes(monkeypatch)
        inside, frames, calls = [], [], collections.Counter()

        def spying(name):
            real = getattr(bal, name)

            def spy(*args):
                calls[name] += 1
                inside.append(name)
                try:
                    return real(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(bal, name, spy)

        spying("_node_sum")
        spying("_charge_blocks")
        tangent_frame = bal._tangent_frame

        def spying_tangent_frame(tang):
            frames.append(inside[-1] if inside else None)
            return tangent_frame(tang)

        monkeypatch.setattr(bal, "_tangent_frame", spying_tangent_frame)
        if job == "balance":
            suites.balance_job(cfg, cfg.k_min, suites.sweep_tables(cfg)[0])
        else:
            suites.spectrum_job(cfg, cfg.k_min)
        [state] = seen
        assert not state.torus
        assert state.rule.points.shape[0] == 3 * 7 * 5
        assert calls["_charge_blocks"] > 0
        assert calls["_node_sum"] == (job == "spectrum")
        assert collections.Counter(frames) == calls

    def test_a_rank_deficient_orbit_node_is_skipped(self, caplog):
        # the tangent columns vanish at the branch point, so its frame's
        # singular values are 0: the operator skips the node and the
        # solver still reports; span{1, w} is all of R^2 here, so the
        # step is 0 and the level is flagged diverged
        state = branch_orbit_state()
        with caplog.at_level(logging.WARNING, logger="projbalance.balancing"):
            op = bal.sigma_z_operator(state)
        assert (op.skipped, op.samples) == (1, 1)
        assert any("rank" in rec.message for rec in caplog.records)
        report = bal.balance_iterate(state, tol=1e-8)
        assert isinstance(report, bal.BalanceReport)
        assert report.diverged and not report.converged

    def test_a_stalled_step_flags_divergence(self):
        # P(O + O(1)) has no balanced metric: the steps stop lowering the
        # moment, the last is halved to nothing, and the level is flagged
        model = LineBundleSumOverP1((0, 1), 2)
        report = bal.balance_iterate(
            bal.embedding_state(model, rule=bal.torus_orbit_rule(model, 16)),
            tol=1e-8, max_iter=suites._MAX_ITER)
        assert report.diverged and not report.converged
        assert report.iterations < 20
        assert 0 <= report.fallback_steps <= report.iterations
        assert report.moment.norm_op == pytest.approx(0.0313, abs=1e-4)

    def test_an_orbit_rule_sits_at_angle_zero(self):
        # Q_0 reads the sections and their jets as real, as they are at
        # the orbit nodes
        with pytest.raises(ValueError, match="real and nonnegative"):
            bal.OrbitRule(np.array([[0.5j]]), np.ones(1))
        with pytest.raises(ValueError, match="real and nonnegative"):
            bal.OrbitRule(np.array([[-0.5 + 0j]]), np.ones(1))

    def test_a_sweep_builds_its_orbit_rule_once(self, monkeypatch):
        suites._orbit_rule.cache_clear()
        built = count_calls(monkeypatch, bal, "torus_orbit_rule")
        cfg = replace(NEWTON_SWEEPS["bench-spectrum"], k_max=3)
        levels = [suites.spectrum_job(cfg, k) for k in cfg.ks]
        assert len(built) == 1
        assert all(level["converged"] for level in levels)
        rule = suites._orbit_rule(cfg)
        assert not rule.points.flags.writeable
        assert not rule.weights.flags.writeable


class TestTorusOperator:
    """`sigma_z_operator` at a torus state, summed on `torus_orbit_rule`
    with only its zero-character entries, one block per torus charge,
    gives what the same Gram gives on `torus_rule` on the general path,
    one block of all N^2 pairs: the same Q and the same spectrum."""

    @pytest.mark.parametrize("gram", ["solved", "random-0", "random-1"])
    @pytest.mark.parametrize("key", sorted(OPERATOR_MODELS))
    def test_matches_the_torus_rule(self, key, gram):
        model = OPERATOR_MODELS[key]
        state = bal.embedding_state(model,
                                    rule=bal.torus_orbit_rule(model, 6))
        if gram == "solved":
            # P(O + O(1)) and P(O + O + O(1)) stop at the obstruction,
            # still on a diagonal Gram
            state = bal.balance_iterate(state, tol=1e-10, max_iter=60).state
        else:
            rng = np.random.default_rng(int(gram[-1]))
            state = state.with_gram(np.diag(rng.uniform(0.2, 5.0,
                                                        state.count)))
        full = bal.embedding_state(model, gram=state.gram.matrix,
                                   basis=state.basis,
                                   rule=torus_rule(model, 6))
        ours, theirs = bal.sigma_z_operator(state), bal.sigma_z_operator(full)
        assert ours.samples == state.rule.points.shape[0]
        assert ours.skipped == theirs.skipped
        assert ours.volume == pytest.approx(theirs.volume, rel=1e-13, abs=0.0)
        # relative to the volume, absolute where Q vanishes
        move = np.max(np.abs(ours.q_matrix - theirs.q_matrix))
        assert move <= 1e-13 * theirs.volume
        if model.m == 0:
            assert np.max(np.abs(theirs.q_matrix)) <= 1e-13 * theirs.volume
        n = state.count
        assert (theirs.sectors, theirs.largest_sector) == (1, n * n)
        assert ours.sectors > 1 and ours.largest_sector == n
        want = np.linalg.eigvalsh(theirs.q_matrix)
        assert np.max(np.abs(block_spectrum(ours) - want)) <= (
            1e-13 * theirs.volume)
        a, b = bal.eig_estimate(ours), bal.eig_estimate(theirs)
        assert (a.kernel_dim, a.dimension) == (b.kernel_dim, b.dimension)
        assert a.lambda_z == pytest.approx(b.lambda_z, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gram", ["solved", "random-4"])
    @pytest.mark.parametrize("key", sorted(OPERATOR_MODELS))
    def test_identity_is_annihilated(self, key, gram):
        # P u = 0 at every node, so Q_E vec(I) = 0 on every path: the
        # zero that `eig_estimate` counts out of the kernel.  Torus blocks,
        # the general path on the full angular rule at the same Gram, and
        # the general path at a random Hermitian Gram on a small plain
        # rule (the identity's image vanishes node by node)
        model = OPERATOR_MODELS[key]
        state = orbit_state(model, gram)
        full = bal.embedding_state(model, gram=state.gram.matrix,
                                   basis=state.basis,
                                   rule=torus_rule(model, 6))
        rng = np.random.default_rng(5)
        plain = bal.embedding_state(
            model, basis=state.basis, gram=random_spd(rng, state.count),
            rule=product_rule(base_rule(model, 3, n_angular=4),
                              fiber_rule(model, 3, n_angular=3)))
        identity = np.eye(state.count).ravel()
        for each in (state, full, plain):
            op = bal.sigma_z_operator(each)
            assert np.max(np.abs(op.units @ identity)) <= 1e-13 * op.volume


    @pytest.mark.parametrize("model, kernel", [
        (TrivialBundleOverPm(1, 2, 2), 6), (TrivialBundleOverPm(1, 2, 3), 6),
        (TrivialBundleOverPm(2, 2, 2), 11), (TrivialBundleOverPm(2, 2, 3), 11),
        (TrivialBundleOverPm(1, 3, 2), 11)], ids=lambda v: getattr(
            v, "label", str(v)))
    def test_the_kernel_is_aut(self, model, kernel):
        # at the balanced state Q vanishes exactly on aut(P^m x P^(r-1)),
        # of dimension m (m + 2) + r^2 - 1, less the identity's zero
        state = orbit_state(model, "solved")
        est = bal.eig_estimate(bal.sigma_z_operator(state))
        assert model.m * (model.m + 2) + model.r ** 2 - 1 == kernel
        assert est.kernel_dim == kernel
        assert est.dimension == state.count ** 2 - 1

    def test_both_paths_make_one_rank_decision(self):
        # the sub-system {1, xi z} of P^1 x P^1 at k = 2 maps onto a
        # curve, so the two tangent columns are parallel at every node:
        # both paths skip all 36 orbit nodes on the shared tangent frame
        model = TrivialBundleOverPm(1, 2, 2)
        basis = SectionBasis(model, np.array([0, 1]), np.array([[0], [1]]))
        rule = bal.torus_orbit_rule(model, 6)
        states = [bal.embedding_state(model, basis=basis, rule=each)
                  for each in (rule, ChartRule(rule.points, rule.weights))]
        assert [each.torus for each in states] == [True, False]
        for state in states:
            op = bal.sigma_z_operator(state)
            assert (op.skipped, op.samples) == (36, 0)


class TestChargeSectors:
    """At a torus state `sigma_z_operator` forms one Hermitian block per
    torus charge, the charge-0 block on the N diagonal pairs, with no
    N^2 x N^2 array and one batched eigvalsh per block size; Q itself is
    assembled only when read."""

    def test_blocks_partition_the_traceless_matrices(self):
        # P^1 x P^1 at k = 2: every pair in one sector, the sizes sum to
        # N^2, and each size is solved by one batched eigvalsh
        state = orbit_state(TrivialBundleOverPm(1, 2, 2), "random-2")
        n = state.count
        sectors = bal._charge_sectors(state.basis)
        assert np.array_equal(np.sort(np.concatenate(sectors)),
                              np.arange(n * n))
        assert [len(s) for s in sectors if 0 in s] == [n]
        op = bal.sigma_z_operator(state)
        sizes = [q.shape[-1] for _, q in op.charges]
        assert len(set(sizes)) == len(sizes)
        assert sum(len(q) * q.shape[-1] for _, q in op.charges) == n * n
        assert op.sectors == len(sectors)

    def test_level_solves_sectors_only(self, monkeypatch):
        # a torus level forms no su_basis and no (N^2, N^2) array, and its
        # largest eigvalsh is its largest sector: O(20) on P^1, N = 21
        state = orbit_state(LineBundleSumOverP1((0,), 20), "random-3",
                            n_radial=10)
        state._torus_geometry  # the level's solve read the table
        n = state.count

        def refuse(count):
            raise AssertionError("su_basis built")

        monkeypatch.setattr(bal, "su_basis", refuse)
        shapes = []
        real = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        tracemalloc.start()
        try:
            op = bal.sigma_z_operator(state)
            est = bal.eig_estimate(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n ** 4  # one float (N^2, N^2) array
        assert est.dimension == n * n - 1
        assert op.largest_sector == n
        assert max(shape[-1] for shape in shapes) == op.largest_sector
        assert len(shapes) == len({shape[-1] for shape in shapes})
        # P^1: the charges -k..k, each a block of N - |charge| pairs
        assert op.sectors == 2 * n - 1

    def test_q_matrix_is_assembled_when_read(self):
        state = orbit_state(LineBundleSumOverP1((0,), 3), "solved")
        op = bal.sigma_z_operator(state)
        assert "q_matrix" not in vars(op)
        q = op.q_matrix
        assert q is op.q_matrix
        gens = bal.su_basis(state.count)
        given = bal.sigma_z_operator(state, generators=gens)
        assert np.max(np.abs(given.q_matrix - q)) <= 1e-15 * op.volume

    def test_spectrum_job_builds_no_su_basis(self, monkeypatch):
        # a level at k_min, its self-check on the full angular rule
        # included, compares and solves matrix-unit blocks only
        def refuse(*args):
            raise AssertionError("su(N) basis formed")

        monkeypatch.setattr(bal, "su_basis", refuse)
        monkeypatch.setattr(bal, "_contract", refuse)
        cfg = ExperimentConfig(kind="pm-trivial", k_min=2, k_max=3,
                               n_radial=6, balance_tol=1e-9)
        result = suites.spectrum_job(cfg, 2)
        assert result["torus_row"]["value"] <= 1e-13
        assert result["dimension"] == 6 ** 2 - 1

    def test_general_path_in_node_blocks(self, monkeypatch):
        # a budget of seven nodes per block moves the general path's Q by
        # roundoff against one block of all 36
        rng = np.random.default_rng(71)
        state = p1xp1_state(2, gram=random_spd(rng, 6), n_radial=2)
        whole = bal.sigma_z_operator(state)
        frames = count_calls(monkeypatch, bal, "_normal_frame")
        monkeypatch.setattr(bal, "_NODE_BLOCK_BYTES", 16 * 36 * 7)
        blocked = bal.sigma_z_operator(state)
        nodes = state.rule.points.shape[0]
        assert [len(args[0]) for args in frames] == [7] * (nodes // 7) + (
            [nodes % 7] if nodes % 7 else [])
        assert (blocked.samples, blocked.skipped, blocked.volume) == (
            whole.samples, whole.skipped, whole.volume)
        move = np.max(np.abs(blocked.q_matrix - whole.q_matrix))
        assert move <= 1e-13 * whole.volume


# ---------------------------------------------------------------------------
# comparability check
# ---------------------------------------------------------------------------

class TestRBoundedCheck:
    @staticmethod
    def _nodes():
        return base_rule(LineBundleSumOverP1((0,), 2), n_radial=8).points

    @staticmethod
    def _line_state(k, gram=None):
        # O(k) on P^1; Gram diag(1 / C(k, j)) gives K = (1 + |z|^2)^k, so
        # the form is k times the round one
        return bal.embedding_state(LineBundleSumOverP1((0,), k), gram=gram,
                                   n_radial=4)

    def test_identical_forms_pass_with_exact_margins(self):
        ref = self._line_state(1)
        report = bal.r_bounded_check(ref, ref, self._nodes(), r_bound=2.0)
        assert report.passes
        assert abs(report.margins[0] - 2.0) < 1e-14
        assert abs(report.margins[1] - 0.5) < 1e-12
        assert report.c_a_norm < 1e-14

    def test_doubled_form_fails_norm_condition(self):
        doubled = self._line_state(2, gram=np.diag([1.0, 0.5, 1.0]))
        report = bal.r_bounded_check(doubled, self._line_state(1),
                                     self._nodes(), r_bound=1.5)
        assert not report.passes
        assert report.margins[0] < 0.0
        # the lower bound 2 >= 1/1.5 still holds
        assert report.min_ratio == pytest.approx(2.0, rel=1e-12)
        assert report.margins[1] > 0.0

    @pytest.mark.parametrize("pts", [np.zeros((0, 1)), np.zeros(3),
                                     np.zeros((2, 2, 1))],
                             ids=["no-rows", "one-dim", "three-dim"])
    def test_points_must_be_a_nonempty_table(self, pts):
        state = self._line_state(1)
        with pytest.raises(ValueError, match="pts"):
            bal.r_bounded_check(state, state, pts, r_bound=2.0)

    def test_stencil_sizes(self):
        # C^2 has 4 real directions: the offsets of all nested differences
        # up to order 4 fill the l1 ball of radius 4 in Z^4 (321 points),
        # and there are C(4 + 3, 3) multisets of each size up to 4 (70 rows,
        # the empty one included), as many as the jets' derivative rows
        offsets, weights, levels, _ = comparability_stencil(2, 4)
        assert offsets.shape == (321, 2)
        assert weights.shape == (70, 321)
        assert np.bincount(levels).tolist() == [1, 4, 10, 20, 35]
        assert np.array_equal(np.sort(jet_tables(2, 4).levels), levels)
        steps = np.abs(offsets.real) + np.abs(offsets.imag)
        assert np.max(steps.sum(axis=1)) == 4
        # a difference of order >= 1 vanishes on constants
        assert np.array_equal(weights.sum(axis=1), levels == 0)

    def test_fourth_difference_of_quartic_is_exact(self):
        # the oracle's own check: reference I, candidate
        # I + eps (Re z1)^4 I; at the origin every difference is exact for
        # this quartic, the largest is the fourth along Re z1, 4! eps, and
        # the candidate equals the reference
        eps = 1e-3

        def reference(p):
            return np.broadcast_to(np.eye(2, dtype=complex),
                                   (p.shape[0], 2, 2)).copy()

        def candidate(p):
            bump = eps * p[:, 0].real ** 4
            return reference(p) * (1.0 + bump)[:, None, None]

        report = stencil_r_bounded_check(candidate, reference,
                                         np.zeros((1, 2), dtype=complex),
                                         r_bound=2.0)
        assert report.c_a_norm == pytest.approx(24.0 * eps, rel=1e-9)
        assert report.min_ratio == pytest.approx(1.0, abs=1e-15)
        assert report.passes

    @staticmethod
    def _unbalanced_states():
        # an unbalanced P^1 x P^1 state against its initial state, at 16
        # points of the unit polydisc as in the balance suite
        rng = np.random.default_rng(71)
        initial = p1xp1_state(2, n_radial=4)
        moved = p1xp1_state(2, gram=random_spd(rng, initial.count, 0.5),
                            n_radial=4)
        radius = np.sqrt(rng.uniform(size=(16, 2)))
        angle = rng.uniform(0.0, 2.0 * math.pi, size=(16, 2))
        return moved, initial, radius * np.exp(1j * angle)

    def test_matches_nested_differences(self):
        # the oracle's multiset stencil against nested differences along
        # every ordered tuple of directions
        moved, initial, pts = self._unbalanced_states()
        candidate = bal.embedding_form_field(moved)
        reference = bal.embedding_form_field(initial)
        got = stencil_r_bounded_check(candidate, reference, pts, r_bound=1e3)
        want = nested_r_bounded_check(candidate, reference, pts,
                                      r_bound=1e3)
        assert want.c_a_norm > 1.0
        assert got.c_a_norm == pytest.approx(want.c_a_norm, rel=1e-9)
        assert got.min_ratio == want.min_ratio
        assert got.margins[1] == want.margins[1]
        assert (got.passes, got.order, got.nodes) == (
            want.passes, want.order, want.nodes)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_closed_form_at_the_origin(self, k):
        # Gram diag(1 / C(k, beta)) on P^1 x P^1: K = (1 + |z|^2)^k
        # (1 + |xi|^2) up to scale, so g_zz = k / (1 + x^2 + y^2)^2, whose
        # derivatives at 0 are -4k (d_x^2), 72k (d_x^4), 24k (d_x^2 d_y^2)
        # and 0 at every odd order; g_xixi is the same at k = 1
        model = TrivialBundleOverPm(1, 2, k)
        basis = build_section_basis(model)
        gram = np.diag([1.0 / math.comb(k, int(beta))
                        for beta in basis.exponents[:, 0]])
        state = bal.embedding_state(model, gram=gram,
                                    rule=bal.torus_orbit_rule(model, 4))
        field, derivs = bal._form_derivatives(state, np.zeros((1, 2)))
        rows = [tuple(row) for row in jet_tables(2, 4).mono[:70]]
        levels = jet_tables(2, 4).levels
        assert np.allclose(field[0], np.diag([k, 1.0]), rtol=0.0, atol=1e-14)
        # exponents (alpha_z, alpha_xi, gamma_z, gamma_xi) of
        # d_x^alpha d_y^gamma
        want = {(2, 0, 0, 0): (-4 * k, 0), (0, 0, 2, 0): (-4 * k, 0),
                (0, 2, 0, 0): (0, -4), (4, 0, 0, 0): (72 * k, 0),
                (2, 0, 2, 0): (24 * k, 0), (0, 4, 0, 0): (0, 72),
                (0, 2, 0, 2): (0, 24), (2, 2, 0, 0): (0, 0)}
        for row, (zz, xx) in want.items():
            got = derivs[rows.index(row), 0]
            assert np.allclose(got, np.diag([zz, xx]), rtol=1e-13,
                               atol=1e-12 * k), row
        assert np.max(np.abs(derivs[levels % 2 == 1])) == 0.0
        # the mixed block of a product form vanishes at every order
        assert np.max(np.abs(derivs[:, :, 0, 1])) <= 1e-12 * k

    @pytest.mark.parametrize("key", ["p1xp1-k2", "p1xp1-k3", "p1xp1-k4",
                                     "p1xp1-k5", "p1xp1-k6", "p1-sum-0",
                                     "p2xp1-k2"])
    def test_matches_the_richardson_limit(self, key):
        # the balance suite's states and nodes (k = 2..6 on P^1 x P^1), a
        # d = 1 and a d = 3 model: every derivative of the jets against
        # the h -> 0 Richardson limit of the stencil at h and h/2, to the
        # extrapolation's error estimate |D(h/2) - D(h)| plus ten times the
        # roundoff of a level-l difference at h/2, 2^l eps max|g| / h^l;
        # and the check's c_a against the same limit
        model, n_pts = {
            "p1-sum-0": (LineBundleSumOverP1((0,), 3), 8),
            "p2xp1-k2": (TrivialBundleOverPm(2, 2, 2), 3),
        }.get(key, (TrivialBundleOverPm(1, 2, int(key[-1])), 16))
        initial = bal.embedding_state(model,
                                      rule=bal.torus_orbit_rule(model, 6))
        solved = bal.balance_iterate(initial, tol=1e-9,
                                     max_iter=suites._MAX_ITER).state
        rng = np.random.default_rng(7 + 313 * model.k)
        radius = np.sqrt(rng.uniform(size=(n_pts, model.n)))
        angle = rng.uniform(0.0, 2.0 * math.pi, size=(n_pts, model.n))
        pts = radius * np.exp(1j * angle)
        h = 5e-3
        limits = []
        for state in (solved, initial):
            field, jets = bal._form_derivatives(state, pts)
            coarse = stencil_derivatives(bal.embedding_form_field(state),
                                         pts, h)
            fine = stencil_derivatives(bal.embedding_form_field(state), pts,
                                       h / 2)
            limit = (4.0 * fine - coarse) / 3.0
            levels = jet_tables(model.n, 4).levels
            roundoff = (16.0 * np.finfo(float).eps * np.max(np.abs(field))
                        * (2.0 / h) ** levels)
            bound = np.abs(fine - coarse) + roundoff[:, None, None, None]
            assert np.all(np.abs(jets - limit) <= bound)
            limits.append(limit)
        got = bal.r_bounded_check(solved, initial, pts, r_bound=1e7)
        want = c_a_of_table(limits[0] - limits[1],
                            bal.embedding_form_field(initial)(pts),
                            model.n)
        assert got.c_a_norm == pytest.approx(want, rel=1e-5)

    def test_corrupted_jet_trips_the_order_zero_guard(self, monkeypatch):
        # a first-order Taylor coefficient off by 1e-9 at one node moves
        # the order-0 term of g there
        original = SectionBasis.eval_taylor

        def corrupted(self, pts, orders):
            out = original(self, pts, orders)
            out[3, 1] *= 1.0 + 1e-9
            return out

        moved, initial, pts = self._unbalanced_states()
        monkeypatch.setattr(SectionBasis, "eval_taylor", corrupted)
        with pytest.raises(NumericalGuardError) as err:
            bal.r_bounded_check(moved, initial, pts, r_bound=1e3)
        message = str(err.value)
        assert "at node 3 of 16, above 1e-12" in message
        assert "p1-sum(0, 0)-k2" in message

    def test_surface_check_factors_nothing(self, monkeypatch):
        # at d = 2 the reference's inverse root and both smallest
        # eigenvalues are closed forms: no eigh, no eigvalsh
        moved, initial, pts = self._unbalanced_states()
        want = bal.r_bounded_check(moved, initial, pts, r_bound=1e3)
        calls = [count_calls(monkeypatch, np.linalg, name)
                 for name in ("eigh", "eigvalsh")]
        got = bal.r_bounded_check(moved, initial, pts, r_bound=1e3)
        assert calls == [[], []]
        assert got == want

    @pytest.mark.parametrize("factor", [-1.0, math.nan],
                             ids=["negative", "nan"])
    def test_reference_not_positive_names_the_node(self, monkeypatch,
                                                   factor):
        # fault injection: the reference's form field at node 5 turns
        # negative definite, or NaN, which must fail closed
        moved, initial, pts = self._unbalanced_states()
        original = bal._form_derivatives

        def faulty(state, p):
            field, derivs = original(state, p)
            if state is moved:
                field = field.copy()
                field[5] *= factor
            return field, derivs

        monkeypatch.setattr(bal, "_form_derivatives", faulty)
        with pytest.raises(NumericalGuardError) as err:
            bal.r_bounded_check(initial, moved, pts, r_bound=1e3)
        message = str(err.value)
        assert "not positive at node 5 of 16" in message
        assert ("smallest eigenvalue nan" if math.isnan(factor)
                else "smallest eigenvalue -") in message
        assert f"condition number {moved.gram.condition():.3e}" in message
        assert "p1-sum(0, 0)-k2" in message

    def test_field_called_once_per_state(self, monkeypatch):
        # each state's form field at the nodes, once: the stencil read 321
        # shifted copies of them
        moved, initial, pts = self._unbalanced_states()
        original = bal.embedding_form_field
        calls = []

        def counted(state):
            field = original(state)

            def call(p):
                calls.append((state, p.shape))
                return field(p)
            return call

        monkeypatch.setattr(bal, "embedding_form_field", counted)
        bal.r_bounded_check(moved, initial, pts, r_bound=1e3)
        assert sorted(calls, key=lambda c: c[0] is moved) == [
            (initial, (16, 2)), (moved, (16, 2))]


@functools.lru_cache(maxsize=None)
def comparability_stencil(d, order):
    """Lattice offsets and integer weights of every nested central
    difference up to `order` along the 2d real directions of C^d.

    Direction 2a is Re z_a and 2a+1 is Im z_a.  Mixed central differences
    commute, so one row per multiset of directions suffices; a row holds
    the expanded product of (S_dir - S_dir^-1) over the multiset, S the unit
    lattice shift, to be divided by (2h)^level.  Returns the complex offsets
    (n_offsets, d), the weight matrix (n_multisets, n_offsets), the level
    of each row and its exponents (alpha, gamma) of d_x^alpha d_y^gamma, as
    in the rows of `kahler.jet_tables`; row 0 is the empty multiset (the
    field itself)."""
    rows = []
    for level in range(order + 1):
        for dirs in itertools.combinations_with_replacement(range(2 * d),
                                                            level):
            terms = {(0,) * (2 * d): 1}
            for axis in dirs:
                shifted = collections.defaultdict(int)
                for off, c in terms.items():
                    for sign in (1, -1):
                        moved = list(off)
                        moved[axis] += sign
                        shifted[tuple(moved)] += sign * c
                terms = shifted
            rows.append((dirs, {off: c for off, c in terms.items() if c}))
    lattice = sorted({off for _, terms in rows for off in terms})
    index = {off: i for i, off in enumerate(lattice)}
    weights = np.zeros((len(rows), len(lattice)))
    for i, (_, terms) in enumerate(rows):
        for off, c in terms.items():
            weights[i, index[off]] = c
    steps = np.array(lattice, dtype=float)
    offsets = steps[:, 0::2] + 1j * steps[:, 1::2]
    levels = np.array([len(dirs) for dirs, _ in rows])
    exponents = np.zeros((len(rows), 2 * d), dtype=int)
    for i, (dirs, _) in enumerate(rows):
        for axis in dirs:
            exponents[i, axis // 2 + d * (axis % 2)] += 1
    return offsets, weights, levels, exponents


def stencil_table(field, pts, h, order=4):
    """Every multiset difference of the field at step h, (rows, n, m, m),
    in the row order of `comparability_stencil`."""
    pts = np.asarray(pts, dtype=complex)
    n, d = pts.shape
    offsets, weights, levels, _ = comparability_stencil(d, order)
    shifted = (pts[None, :, :] + h * offsets[:, None, :]).reshape(-1, d)
    table = np.asarray(field(shifted))
    table = table.reshape((len(offsets), n) + table.shape[1:])
    return (np.tensordot(weights, table, axes=1)
            / (2.0 * h) ** levels[:, None, None, None])


def stencil_derivatives(field, pts, h, order=4):
    """`stencil_table` in the row order of `kahler.jet_tables`."""
    d = np.asarray(pts).shape[1]
    exponents = comparability_stencil(d, order)[3]
    mono = jet_tables(d, order).mono
    rows = {tuple(row): i for i, row in enumerate(mono[:len(exponents)])}
    table = stencil_table(field, pts, h, order)
    out = np.empty_like(table)
    out[[rows[tuple(e)] for e in exponents]] = table
    return out


def c_a_of_table(derivs, g0, d, order=4):
    """The comparability norm of a derivative table in the row order of
    `kahler.jet_tables`: whitened by the reference g0, one factor of
    ||g0^{-1/2}|| per derivative index, largest over rows and nodes."""
    w0eigs, w0vecs = np.linalg.eigh(g0)
    w0 = (w0vecs / np.sqrt(w0eigs)[:, None, :]) @ np.swapaxes(
        w0vecs.conj(), -1, -2)
    levels = jet_tables(d, order).levels
    sand = w0 @ derivs @ w0
    norms = np.linalg.svd(sand, compute_uv=False)[..., 0]
    return float(np.max(norms / np.sqrt(w0eigs[:, 0]) ** levels[:, None]))


def stencil_r_bounded_check(candidate, reference, pts, r_bound, h=5e-2):
    """Oracle: the comparability check of two form callables by the
    multiset central differences of `comparability_stencil` at step h,
    each field evaluated once on the whole lattice around the nodes."""
    pts = np.asarray(pts, dtype=complex)
    d = pts.shape[1]
    g0 = np.asarray(reference(pts))
    derivs = (stencil_derivatives(candidate, pts, h)
              - stencil_derivatives(reference, pts, h))
    c_a = c_a_of_table(derivs, g0, d)
    w0eigs, w0vecs = np.linalg.eigh(g0)
    w0 = (w0vecs / np.sqrt(w0eigs)[:, None, :]) @ np.swapaxes(
        w0vecs.conj(), -1, -2)
    wcand = np.einsum("nab,nbc,ncd->nad", w0, np.asarray(candidate(pts)), w0)
    wcand = 0.5 * (wcand + np.swapaxes(wcand.conj(), -1, -2))
    min_ratio = float(np.min(np.linalg.eigvalsh(wcand)[:, 0]))
    margins = (r_bound - c_a, min_ratio - 1.0 / r_bound)
    return bal.RBoundedReport(
        passes=bool(margins[0] >= 0.0 and margins[1] >= 0.0), c_a_norm=c_a,
        min_ratio=min_ratio, margins=margins, order=4, nodes=int(len(pts)))


def nested_r_bounded_check(candidate, reference, pts, r_bound, order=4,
                           h=5e-2):
    """Oracle: the comparability check as nested central differences along
    every ordered tuple of real directions, each difference a fresh pair of
    field calls at shifted points."""
    pts = np.asarray(pts, dtype=complex)
    d = pts.shape[1]
    g0 = np.asarray(reference(pts))
    w0eigs, w0vecs = np.linalg.eigh(g0)
    w0 = (w0vecs / np.sqrt(w0eigs)[:, None, :]) @ np.swapaxes(
        w0vecs.conj(), -1, -2)
    dirweight = 1.0 / np.sqrt(w0eigs[:, 0])

    def whitened_opnorm(vals):
        sand = np.einsum("nab,nbc,ncd->nad", w0, np.asarray(vals), w0)
        return np.linalg.svd(sand, compute_uv=False)[:, 0]

    def delta(p):
        return np.asarray(candidate(p)) - np.asarray(reference(p))

    def central(fn, direction):
        def diff(p):
            return (fn(p + h * direction) - fn(p - h * direction)) / (2.0 * h)
        return diff

    directions = []
    for a in range(d):
        e = np.zeros(d, dtype=complex)
        e[a] = 1.0
        directions.append(e.copy())
        directions.append(1j * e)
    c_a = float(np.max(whitened_opnorm(delta(pts))))
    fns = [delta]
    for level in range(1, order + 1):
        fns = [central(f, direction) for f in fns for direction in directions]
        for f in fns:
            node_norms = whitened_opnorm(f(pts)) * dirweight ** level
            c_a = max(c_a, float(np.max(node_norms)))
    gc = np.asarray(candidate(pts))
    wcand = np.einsum("nab,nbc,ncd->nad", w0, gc, w0)
    wcand = 0.5 * (wcand + np.swapaxes(wcand.conj(), -1, -2))
    min_ratio = float(np.min(np.linalg.eigvalsh(wcand)[:, 0]))
    margins = (r_bound - c_a, min_ratio - 1.0 / r_bound)
    return bal.RBoundedReport(
        passes=bool(margins[0] >= 0.0 and margins[1] >= 0.0), c_a_norm=c_a,
        min_ratio=min_ratio, margins=margins, order=int(order),
        nodes=int(pts.shape[0]))


# ---------------------------------------------------------------------------
# almost-balanced order detection
# ---------------------------------------------------------------------------

def synthetic_entries(q, ks=(2, 3, 4, 5, 6), d_fudge=0.0):
    x0 = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
    entries = []
    for k in ks:
        mat = float(k) ** (-(q + 1)) * x0
        mv = bal.MomentValue(
            matrix=mat, d=1.0 + d_fudge, volume=2.0,
            norm_op=float(np.linalg.norm(mat, 2)),
            norm_fro=float(np.linalg.norm(mat)))
        entries.append((k, mv))
    return entries


# V/N of the synthetic entries: volume 2 over 2 sections
SYNTHETIC_D = [1.0] * 5


class TestAlmostBalancedCheck:
    def test_detects_injected_order(self):
        entries = synthetic_entries(q=2)
        assert bal.almost_balanced_check(entries, q=2,
                                         expected_d=SYNTHETIC_D).passes
        assert not bal.almost_balanced_check(entries, q=3,
                                             expected_d=SYNTHETIC_D).passes

    def test_each_injected_order_classified(self):
        for q in (1, 2, 3):
            entries = synthetic_entries(q=q)
            verdict = bal.almost_balanced_check(entries, q=q,
                                                expected_d=SYNTHETIC_D)
            assert verdict.passes
            assert abs(verdict.fitted_order - (q + 1)) < 0.05

    def test_exactly_balanced_passes_every_order(self):
        entries = []
        for k in (2, 3, 4):
            mat = np.zeros((2, 2))
            mv = bal.MomentValue(matrix=mat, d=1.0, volume=2.0,
                                 norm_op=0.0, norm_fro=0.0)
            entries.append((k, mv))
        for q in (1, 2, 3, 7):
            assert bal.almost_balanced_check(entries, q=q,
                                             expected_d=[1.0] * 3).passes

    def test_distortion_defect_fails(self):
        entries = synthetic_entries(q=2, d_fudge=1e-6)
        expected = [1.0] * len(entries)
        verdict = bal.almost_balanced_check(entries, q=2, expected_d=expected)
        assert not verdict.passes
        assert verdict.d_defect > 1e-7

    def test_distortion_matches_geometry_on_real_sweep(self):
        # O(k) on P^1: reduced volume k, dimension k+1, so D = k/(k+1)
        entries = []
        expected = []
        for k in (2, 3, 4):
            model = LineBundleSumOverP1((0,), k)
            # the kernel has poles at distance shrinking with k: radial
            # order 20 puts the volume error below 1e-11 through k = 4
            state = bal.embedding_state(model, n_radial=20)
            mv = bal.moment_map(state)
            entries.append((k, mv))
            info = riemann_roch_dimension(model)
            expected.append(float(k) / info["N"])
        verdict = bal.almost_balanced_check(entries, q=1, expected_d=expected)
        assert verdict.d_defect < 1e-9

    def test_too_few_levels(self):
        with pytest.raises(ValueError, match="at least three"):
            bal.almost_balanced_check(synthetic_entries(q=1, ks=(2, 3)), q=1,
                                      expected_d=[1.0] * 2)

    def test_expected_d_is_required(self):
        # d = V/N is the quotient moment_map builds d from: defaulting the
        # expectation to it would make the d-check read 0 whatever d is
        with pytest.raises(TypeError, match="expected_d"):
            bal.almost_balanced_check(synthetic_entries(q=1), q=1)

    def test_expected_d_length_must_match(self):
        with pytest.raises(ValueError, match="expected_d length"):
            bal.almost_balanced_check(synthetic_entries(q=1), q=1,
                                      expected_d=SYNTHETIC_D[:4])
