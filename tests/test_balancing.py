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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    orthonormalization (eigendecomposition instead of Cholesky), explicit
    per-node accumulation, finite differences nowhere."""
    g = state.gram.matrix
    w, v = np.linalg.eigh(g)
    t = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T  # Hermitian inverse root
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
    return raw - (vol / nn) * np.eye(nn), vol / nn


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
        rho = bal.balanced_density(report.state)
        assert np.var(rho) < 1e-7
        assert np.max(np.abs(rho - np.mean(rho))) < 1e-6

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
        def bad_step(state):
            g = state.gram.matrix.copy()
            g[0, 0] *= 1.3
            g /= np.linalg.det(g).real ** (1.0 / g.shape[0])
            return bal.embedding_state(
                state.model, gram=g, rule=state.rule, state_cache=state)

        monkeypatch.setattr(bal, "t_map_step", bad_step)
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert not report.converged
        assert report.diverged
        assert report.iterations < 100

    def test_guard_trip_mid_iteration_flags_divergence(self, monkeypatch):
        # a step that degenerates the Gram fast enough hits the conditioning
        # guard before ten consecutive rises accumulate; the iteration must
        # return a partial diverged report, not crash
        def bad_step(state):
            g = state.gram.matrix.copy()
            g[0, 0] *= 16.0
            g /= np.linalg.det(g).real ** (1.0 / g.shape[0])
            return bal.embedding_state(
                state.model, gram=g, rule=state.rule, state_cache=state)

        monkeypatch.setattr(bal, "t_map_step", bad_step)
        report = bal.balance_iterate(veronese_state(), tol=1e-12,
                                     max_iter=500)
        assert not report.converged
        assert report.diverged
        assert len(report.trajectory) >= 1

    def test_hirzebruch_sweep_converges(self):
        metric = SplitBundleMetric(1, (0, 1))
        for k in (2, 3):
            model = LineBundleSumOverP1((0, 1), k)
            state = bal.embedding_state(model, metric=metric, n_radial=10)
            report = bal.balance_iterate(state, tol=1e-6, max_iter=300)
            assert report.converged, f"k={k} failed to converge"


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
        rng = np.random.default_rng(53)
        g0 = random_spd(rng, 3)
        it_report = bal.balance_iterate(
            veronese_state(gram=g0), tol=1e-9, max_iter=400)
        state = veronese_state(gram=g0)
        for _ in range(400):
            mv = bal.moment_map(state)
            if mv.norm_op < 1e-9:
                break
            state = bal.gradient_flow_step(state, step=1.0)
        assert it_report.converged
        assert bal.moment_map(state).norm_op < 1e-9
        # det-gauged balanced Gram is unique here: direct comparison is fair
        assert np.max(np.abs(state.gram.matrix - it_report.state.gram.matrix)) < 1e-6

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


class TestSigmaZ:
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

class TestLambdaZScaling:
    def test_point_base_constant_in_k(self):
        table = bal.lambda_z_scaling(ProjectivePoint(2), ks=(1, 2, 3),
                                     n_radial=8)
        lam = np.array([e.lambda_z for e in table.estimates])
        assert np.max(np.abs(lam - lam[0])) < 1e-8 * max(1.0, abs(lam[0]))

    def test_projective_line_table(self):
        model = LineBundleSumOverP1((0,), 1)
        table = bal.lambda_z_scaling(model, ks=range(1, 6), n_radial=10)
        lam = [e.lambda_z for e in table.estimates]
        assert lam[0] == 0.0  # k=1: identity embedding, no normal directions
        used = np.array(lam[1:])
        assert np.all(np.diff(used) > 0.0)
        assert table.exponent <= 4.5

    def test_doubling_quadrature_is_stable(self):
        model = LineBundleSumOverP1((0,), 1)
        t1 = bal.lambda_z_scaling(model, ks=(2, 3, 4), n_radial=10)
        t2 = bal.lambda_z_scaling(model, ks=(2, 3, 4), n_radial=20)
        l1 = np.array([e.lambda_z for e in t1.estimates])
        l2 = np.array([e.lambda_z for e in t2.estimates])
        assert np.max(np.abs(l1 - l2) / l2) < 0.01

    def test_grid_too_short(self):
        with pytest.raises(ValueError, match="at least three"):
            bal.lambda_z_scaling(LineBundleSumOverP1((0,), 1), ks=(2, 3))

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

    def test_order_below_four_rejected(self):
        with pytest.raises(ValueError, match="order"):
            bal.r_bounded_check(FS1.matrix, FS1.matrix, self._nodes(),
                                r_bound=2.0, order=3)


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
