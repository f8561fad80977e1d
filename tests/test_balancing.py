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

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projbalance.config import ExperimentConfig
from projbalance.errors import NumericalGuardError
from projbalance.kahler import FubiniStudy, complex_hessian, fs_matrix
from projbalance.metrics import SplitBundleMetric, make_gram
from projbalance.quadrature import ChartRule
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    SectionBasis,
    TrivialBundleOverPm,
    base_rule,
    build_section_basis,
    riemann_roch_dimension,
    total_rule,
)
from projbalance import balancing as bal
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
        du = t.T @ jet[node]  # (N, d) in the orthonormal frame
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

    def test_non_hermitian_gram_rejected(self):
        model = LineBundleSumOverP1((0,), 2)
        bad = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            bal.embedding_state(model, gram=bad @ bad.T + np.eye(3) * 1j)

    def test_metric_reference_builds_adapted_rule(self):
        model = LineBundleSumOverP1((0, 1), 2)
        metric = SplitBundleMetric(1, (0, 1))
        state = bal.embedding_state(model, metric=metric, n_radial=8)
        plain = total_rule(model, n_radial=8)
        assert state.rule.points.shape == plain.points.shape
        assert not np.allclose(state.rule.points, plain.points)

    def test_with_gram_shares_tables_and_starts_without_memo(self):
        rng = np.random.default_rng(37)
        first = veronese_state(gram=random_spd(rng, 3))
        bal.moment_map(first)
        assert "_pairings" in vars(first)
        g = random_spd(rng, 3)
        second = first.with_gram(g)
        for name in ("model", "basis", "rule", "frame", "values", "jet"):
            assert getattr(second, name) is getattr(first, name)
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

    def test_with_gram_keeps_the_frame(self):
        rng = np.random.default_rng(43)
        u = random_unitary(rng, 3)
        model = LineBundleSumOverP1((0,), 2)
        g = random_spd(rng, 3)
        framed = bal.embedding_state(model, gram=random_spd(rng, 3),
                                     frame=u.conj().T, n_radial=12)
        moved = framed.with_gram(g)
        assert moved.frame is framed.frame
        direct = bal.embedding_state(model, gram=g, frame=u.conj().T,
                                     n_radial=12)
        got = bal.moment_map(moved).matrix
        want = bal.moment_map(direct).matrix
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.max(np.abs(got)) > 1e-3

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
        model = LineBundleSumOverP1((0,), 2)
        state = veronese_state(gram=g)
        rotated = bal.embedding_state(
            model, gram=u @ g @ u.conj().T, frame=u.conj().T, n_radial=12)
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

    def test_divergence_flagged_anderson(self, monkeypatch):
        # mixing cannot repair a map with no fixed point: the safeguard
        # keeps falling back to the step, and the exit fires on a run of
        # ten strict rises at the end of the trajectory
        monkeypatch.setattr(bal, "t_map_step", scaling_step(1.3))
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert report.diverged and not report.converged
        assert report.fallback_steps > 0
        norms = [row[1] for row in report.trajectory[-11:]]
        assert len(norms) == 11
        assert all(b > a for a, b in zip(norms, norms[1:]))

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
        # from the identity Gram every mixed step is accepted: one pass
        # per state
        state = p1xp1_state(3)
        seen = count_geometry_passes(monkeypatch)
        report = bal.balance_iterate(state, tol=1e-8)
        assert report.converged and report.fallback_steps == 0
        assert len(seen) == report.iterations + 1
        assert len({id(s) for s in seen}) == len(seen)

    def test_anderson_balance_iterate(self, monkeypatch):
        # an accepted mixed step costs one pass, a fallback two
        rng = np.random.default_rng(79)
        state = p1xp1_state(4, gram=random_spd(rng, 10))
        seen = count_geometry_passes(monkeypatch)
        report = bal.balance_iterate(state, tol=1e-8)
        assert report.converged
        assert len(seen) == report.iterations + 1 + report.fallback_steps
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


class TestAnderson:
    def test_solvers_agree_on_gauge_invariants(self):
        # the balanced Gram is unique only up to SU(2) x SU(2), so compare
        # what the automorphisms leave alone: the moment norm, the density
        # and the normal spectrum
        rng = np.random.default_rng(83)
        g0 = random_spd(rng, 8)
        plain, plain_state = plain_t_iteration(p1xp1_state(3, gram=g0),
                                               tol=1e-12)
        mixed = bal.balance_iterate(p1xp1_state(3, gram=g0), tol=1e-12,
                                    max_iter=500)
        assert plain[-1][1] < 1e-12
        assert mixed.converged and mixed.moment.norm_op < 1e-12
        out = []
        for state in (plain_state, mixed.state):
            stats = bal.balanced_density_stats(state)
            assert stats["max_dev"] < 1e-10
            eigs = np.linalg.eigvalsh(bal.sigma_z_operator(state).q_matrix)
            out.append((stats, eigs))
        (plain_stats, plain_eigs), (mixed_stats, mixed_eigs) = out
        assert mixed.iterations < (len(plain) - 1) / 2
        assert abs(mixed_stats["max_dev"] - plain_stats["max_dev"]) < 1e-10
        assert abs(mixed_stats["mean"] - plain_stats["mean"]) < 1e-12
        assert np.max(np.abs(mixed_eigs - plain_eigs)) < 1e-10 * plain_eigs[-1]

    def test_rising_mix_falls_back_to_the_plain_step(self, monkeypatch):
        # an overshooting mix raises the moment norm every time, so every
        # step is the plain T-step: the trajectory is the reference one,
        # each mixing attempt is one counted fallback and one extra pass
        rng = np.random.default_rng(89)
        g0 = random_spd(rng, 6)
        plain, _ = plain_t_iteration(p1xp1_state(2, gram=g0), tol=1e-8)
        attempts = []

        def overshoot(xs, gs):
            attempts.append(len(xs))
            return 3.0 * gs[-1]

        monkeypatch.setattr(bal, "_anderson_mix", overshoot)
        seen = count_geometry_passes(monkeypatch)
        report = bal.balance_iterate(p1xp1_state(2, gram=g0), tol=1e-8)
        assert report.converged and not report.diverged
        assert report.trajectory == plain
        assert report.fallback_steps == len(attempts) > 0
        assert all(n == 2 for n in attempts)  # history cleared each time
        # + 1 for the initial state
        assert len(seen) == report.iterations + 1 + report.fallback_steps

    def test_guard_tripping_mix_falls_back(self, monkeypatch):
        rng = np.random.default_rng(97)
        g0 = random_spd(rng, 6)
        plain, _ = plain_t_iteration(p1xp1_state(2, gram=g0), tol=1e-8)
        monkeypatch.setattr(bal, "_anderson_mix",
                            lambda xs, gs: 1e3 * gs[-1])
        report = bal.balance_iterate(p1xp1_state(2, gram=g0), tol=1e-8)
        assert report.converged and not report.diverged
        assert report.trajectory == plain
        assert report.fallback_steps > 0

    def test_history_holds_the_memory_depth(self, monkeypatch):
        real = bal._anderson_mix
        depths = []

        def recording(xs, gs):
            depths.append(len(xs))
            return real(xs, gs)

        monkeypatch.setattr(bal, "_anderson_mix", recording)
        report = bal.balance_iterate(p1xp1_state(6), tol=1e-8)
        assert report.converged
        assert max(depths) == bal._ANDERSON_MEMORY
        assert report.iterations < 20

    def test_mix_of_an_affine_map_is_its_fixed_point(self):
        # traceless Hermitian 2 x 2 matrices form a 3-dimensional space, so
        # a full history of 5 iterates spans it affinely; on an affine map
        # the least-squares residual is then zero and the mix is the fixed
        # point, wherever the iterates lie
        rng = np.random.default_rng(101)

        def traceless(a):
            return a - np.trace(a) / 2 * np.eye(2)

        b = traceless(random_spd(rng, 2, scale=1.0))
        xs = np.stack([traceless(random_spd(rng, 2, scale=1.0))
                       for _ in range(bal._ANDERSON_MEMORY)])
        gs = 0.5 * xs + b
        mixed = bal._anderson_mix(xs, gs)
        assert np.array_equal(mixed, mixed.conj().T)
        assert np.max(np.abs(mixed - 2.0 * b)) < 1e-12


class TestDensityStats:
    def test_mass_equals_section_count_even_unbalanced(self):
        # trace identity: same-rule pairing makes the integral exactly N
        rng = np.random.default_rng(29)
        state = veronese_state(gram=random_spd(rng, 3))
        stats = bal.balanced_density_stats(state)
        assert abs(stats["mass"] - state.count) < 1e-10
        assert stats["variance"] > 1e-6  # genuinely off balance

    def test_balanced_state_has_flat_density(self):
        state = bal.embedding_state(ProjectivePoint(4), n_radial=8)
        stats = bal.balanced_density_stats(state)
        assert abs(stats["mass"] - 4.0) < 1e-10
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
        # different Grams (from this start the Anderson driver lands 2e-4
        # away from the other two): compare the gauge invariants.  The
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
            assert bal.eig_estimate(op, 2).kernel_dim == 3
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

    def test_frame_relabeling_leaves_field_unchanged(self):
        # the kernel v G^{-1} v^H is blind to a simultaneous family/Gram
        # relabeling, so the pulled-back form must be too
        rng = np.random.default_rng(67)
        u = random_unitary(rng, 3)
        g = random_spd(rng, 3)
        model = LineBundleSumOverP1((0,), 2)
        plain = bal.embedding_state(model, gram=g, n_radial=10)
        relabeled = bal.embedding_state(
            model, gram=u @ g @ u.conj().T, frame=u.conj().T, n_radial=10)
        pts = 0.5 * (rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1)))
        f1 = bal.embedding_form_field(plain)(pts)
        f2 = bal.embedding_form_field(relabeled)(pts)
        assert np.max(np.abs(f1 - f2)) < 1e-12

    def test_identical_fields_pass_comparability(self):
        state = veronese_state()
        field = bal.embedding_form_field(state)
        pts = state.rule.points[::40]
        report = bal.r_bounded_check(field, field, pts, r_bound=3.0)
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
        du = t.T @ jet[node]
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
        tang = du[node] - np.outer(un, un.conj() @ du[node]) / kn
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
        est = bal.eig_estimate(op, state.k)
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
                           balance_tol=1e-9, max_iter=400, **model)
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
# comparability check
# ---------------------------------------------------------------------------

class TestRBoundedCheck:
    @staticmethod
    def _nodes():
        return base_rule(LineBundleSumOverP1((0,), 2), n_radial=8).points

    def test_identical_forms_pass_with_exact_margins(self):
        ref = FS1.matrix
        report = bal.r_bounded_check(ref, ref, self._nodes(), r_bound=2.0)
        assert report.passes
        assert abs(report.margins[0] - 2.0) < 1e-14
        assert abs(report.margins[1] - 0.5) < 1e-12
        assert report.c_a_norm < 1e-14

    def test_doubled_form_fails_norm_condition(self):
        def doubled(pts):
            return 2.0 * FS1.matrix(pts)

        report = bal.r_bounded_check(doubled, FS1.matrix, self._nodes(),
                                     r_bound=1.5)
        assert not report.passes
        assert report.margins[0] < 0.0
        # the lower bound 2 >= 1/1.5 still holds
        assert report.margins[1] > 0.0

    @pytest.mark.parametrize("pts", [np.zeros((0, 1)), np.zeros(3),
                                     np.zeros((2, 2, 1))],
                             ids=["no-rows", "one-dim", "three-dim"])
    def test_points_must_be_a_nonempty_table(self, pts):
        with pytest.raises(ValueError, match="pts"):
            bal.r_bounded_check(FS1.matrix, FS1.matrix, pts, r_bound=2.0)

    def test_stencil_sizes(self):
        # C^2 has 4 real directions: the offsets of all nested differences
        # up to order 4 fill the l1 ball of radius 4 in Z^4 (321 points),
        # and there are C(4 + 3, 3) multisets of each size up to 4 (70 rows,
        # the empty one included)
        offsets, weights, levels = bal._comparability_stencil(2, 4)
        assert offsets.shape == (321, 2)
        assert weights.shape == (70, 321)
        assert np.bincount(levels).tolist() == [1, 4, 10, 20, 35]
        steps = np.abs(offsets.real) + np.abs(offsets.imag)
        assert np.max(steps.sum(axis=1)) == 4
        # a difference of order >= 1 vanishes on constants
        assert np.array_equal(weights.sum(axis=1), levels == 0)

    def test_fourth_difference_of_quartic_is_exact(self):
        # reference I, candidate I + eps (Re z1)^4 I: at the origin every
        # difference is exact for this quartic, the largest is the fourth
        # along Re z1, 4! eps, and the candidate equals the reference
        eps = 1e-3

        def reference(p):
            return np.broadcast_to(np.eye(2, dtype=complex),
                                   (p.shape[0], 2, 2)).copy()

        def candidate(p):
            bump = eps * p[:, 0].real ** 4
            return reference(p) * (1.0 + bump)[:, None, None]

        report = bal.r_bounded_check(candidate, reference,
                                     np.zeros((1, 2), dtype=complex),
                                     r_bound=2.0)
        assert report.c_a_norm == pytest.approx(24.0 * eps, rel=1e-9)
        assert report.min_ratio == pytest.approx(1.0, abs=1e-15)
        assert report.passes

    @staticmethod
    def _unbalanced_fields():
        # an unbalanced P^1 x P^1 state against its initial state, at 16
        # points of the unit polydisc as in the balance suite
        rng = np.random.default_rng(71)
        initial = p1xp1_state(2, n_radial=4)
        moved = p1xp1_state(2, gram=random_spd(rng, initial.count, 0.5),
                            n_radial=4)
        radius = np.sqrt(rng.uniform(size=(16, 2)))
        angle = rng.uniform(0.0, 2.0 * math.pi, size=(16, 2))
        return (bal.embedding_form_field(moved),
                bal.embedding_form_field(initial),
                radius * np.exp(1j * angle))

    def test_matches_nested_differences(self):
        candidate, reference, pts = self._unbalanced_fields()
        got = bal.r_bounded_check(candidate, reference, pts, r_bound=1e3)
        want = nested_r_bounded_check(candidate, reference, pts,
                                      r_bound=1e3)
        assert want.c_a_norm > 1.0
        assert got.c_a_norm == pytest.approx(want.c_a_norm, rel=1e-9)
        assert got.min_ratio == want.min_ratio
        assert got.margins[1] == want.margins[1]
        assert (got.passes, got.order, got.nodes) == (
            want.passes, want.order, want.nodes)

    def test_few_blocked_field_calls(self):
        # 321 offsets x 16 points in blocks of 1024 points: 6 calls per
        # field, plus one at the nodes; the nested form made 4,682
        candidate, reference, pts = self._unbalanced_fields()
        sizes = {"candidate": [], "reference": []}

        def counted(name, field):
            def call(p):
                sizes[name].append(p.shape[0])
                return field(p)
            return call

        bal.r_bounded_check(counted("candidate", candidate),
                            counted("reference", reference), pts,
                            r_bound=1e3)
        bound = math.ceil(321 * 16 / 1024) + 2
        for name, calls in sizes.items():
            assert len(calls) <= bound, name
            assert max(calls) <= 1024, name
            assert sum(calls) == 322 * 16, name


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


class TestAlmostBalancedCheck:
    def test_detects_injected_order(self):
        entries = synthetic_entries(q=2)
        assert bal.almost_balanced_check(entries, q=2).passes
        assert not bal.almost_balanced_check(entries, q=3).passes

    def test_each_injected_order_classified(self):
        for q in (1, 2, 3):
            entries = synthetic_entries(q=q)
            verdict = bal.almost_balanced_check(entries, q=q)
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
            assert bal.almost_balanced_check(entries, q=q).passes

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
            bal.almost_balanced_check(synthetic_entries(q=1, ks=(2, 3)), q=1)
