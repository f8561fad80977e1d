"""Tests for the fiber-integral / density layer.

Every nontrivial expected value below is frozen from a closed form derived
independently of the code under test.  The main worked family is the split
O(0) + O(1) sum over P^1 with its homogeneous metric, where everything is
computable by hand:

* fiber volume constant: in polar coordinates,
  int_{C^(r-1)} prod |dxi dxibar| / (1+|xi|^2)^(r+1)
    = 2^(r-1) * pi^(r-1) (r+1-r-... ) -> 2^(r-1) pi^(r-1) / r!  = (2 pi)^(r-1)/r!.
* hat form on the split model (coordinates (z, xi), q = 1+|z|^2,
  q_d = 1 + q|xi|^2):
      W_fib   = q / q_d^2
      W_zz    = |xi|^2/q_d - |z|^2 |xi|^4 / q_d^2
      W_z,xi  = xi zbar / q_d^2
  so the mixed-volume coefficients are E_0 = |xi|^2/q_d^3, E_1 = 1/(q q_d^2).
* fiber averages: the unit-weight average returns the bundle metric exactly;
  the E_0/E_1-weighted average gives psi_0 = diag(1/3, 2/3).
* level endomorphism: with the level metric h (1 + psi_0/k), the monomial
  Grams are diagonal with entries j!(d-j)!/(d+1)! (d = summand degree + k),
  giving the constant field
      B_k = diag( (k+1)/(1+1/(3k)), (k+2)/(1+2/(3k)) ),
  hence first correction diag(2/3, 4/3), second correction -(2/9) I.
* density: rho(z, xi) = [ (k+1)/c0 + (k+2) q |xi|^2 / c1 ] / (pi q_d) with
  c_a the level factors above; integrating against the degree-k measure
  gives exactly N = 2k+3 (checked by hand, beta integrals).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projbalance.errors import NumericalGuardError
from projbalance.kahler import (
    FubiniStudy,
    PerturbedKahler,
    complex_hessian,
    fs_matrix,
)
from projbalance.metrics import (
    ConstantBundleMetric,
    MatrixField,
    PerturbedBundleMetric,
    SplitBundleMetric,
    curvature_matrix,
    hat_weight,
    mean_curvature,
)
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    ProjectiveSpaceBase,
    SectionBasis,
    TrivialBundleOverPm,
    base_rule,
    build_section_basis,
    fiber_rule,
    total_rule,
)
from projbalance import bergman as bg
from projbalance import suites
from projbalance.config import ExperimentConfig, build_metric, build_model
from projbalance.quadrature import ChartRule, chart_rule, integrate
from reference_structures import FlatChart, lichnerowicz_apply


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def closed_volume_constant(r):
    return (2.0 * math.pi) ** (r - 1) / math.factorial(r)


def random_hermitian_pd(rng, r):
    a = 0.5 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    return a @ a.conj().T + np.eye(r)


def twisted_level_factors(k):
    # level metric factor 1 + psi_0 / k on each summand
    return np.array([1.0 + 1.0 / (3.0 * k), 1.0 + 2.0 / (3.0 * k)])


def twisted_bergman_oracle(k):
    c = twisted_level_factors(k)
    return np.diag([(k + 1.0) / c[0], (k + 2.0) / c[1]])


def twisted_rho_oracle(pts, k):
    z, xi = pts[:, 0], pts[:, 1]
    q = 1.0 + np.abs(z) ** 2
    qd = 1.0 + q * np.abs(xi) ** 2
    c = twisted_level_factors(k)
    return ((k + 1.0) / c[0] + (k + 2.0) * q * np.abs(xi) ** 2 / c[1]) / (np.pi * qd)


def random_total_points(rng, n, model, radius=1.5):
    pts = radius * (rng.standard_normal((n, model.n)) + 1j * rng.standard_normal((n, model.n)))
    return pts


# mean-zero smooth functions on P^1 (parity in the angular variable kills
# the volume mean; both extend smoothly through the chart at infinity)

def eta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).real / q**2


def zeta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).imag / q**2


def eta_killing(z):
    # moment function of a holomorphic rotation field; annihilated by the
    # fourth-order operator
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return z[:, 0].real / q


def profile_axis(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (1.0 - np.abs(z[:, 0]) ** 2) / q


def base_varying_metric(m, r):
    """Split metric with degrees (0, 1, ..., 1) plus a Hermitian term whose
    off-diagonal entry varies over the base, so H, dH and ddH differ from
    one base node to the next; positive on the whole chart."""
    def kfn(z):
        q = 1.0 + np.sum(np.abs(z) ** 2, axis=1)
        out = np.zeros((z.shape[0], r, r), dtype=complex)
        out[:, 0, 1] = 0.3 * np.sum(z, axis=1) / q
        out[:, 0, 0] = 0.2 / q
        return out + np.conj(np.swapaxes(out, 1, 2))

    split = SplitBundleMetric(m, (0,) + (1,) * (r - 1))
    return PerturbedBundleMetric(split, MatrixField(m, r, fn=kfn), 0.2)


# ---------------------------------------------------------------------------
# shared fixtures (module scope: the push-forward tables dominate the cost)
# ---------------------------------------------------------------------------

FS1 = FubiniStudy(1)


@pytest.fixture(scope="module")
def twisted_metric():
    return SplitBundleMetric(1, (0, 1))


@pytest.fixture(scope="module")
def twisted_rules():
    model = LineBundleSumOverP1((0, 1), 4)
    return base_rule(model, n_radial=14), fiber_rule(model, n_radial=14)


def level_sweep(metric, kahler, model, ks, rule, fib):
    """Level endomorphisms over `ks` from one push-forward table on the base
    `rule` nodes (fiber rule `fib`), as the CLI sweeps build them."""
    table = bg.push_forward_table(metric, kahler, model, rule.points, rule=fib)
    return [bg.bergman_endomorphism(metric, kahler, replace(model, k=int(k)),
                                    rule, table)
            for k in ks]


@pytest.fixture(scope="module")
def twisted_sweep(twisted_metric, twisted_rules):
    rule, fib = twisted_rules
    model = LineBundleSumOverP1((0, 1), 2)
    return level_sweep(twisted_metric, FS1, model, range(2, 11), rule, fib)


@pytest.fixture(scope="module")
def twisted_density(twisted_metric):
    model = LineBundleSumOverP1((0, 1), 3)
    rule = bg.adapted_total_rule(twisted_metric, model, n_radial=14)
    return bg.rho_direct(twisted_metric, FS1, model, rule=rule)


# ---------------------------------------------------------------------------
# volume constant
# ---------------------------------------------------------------------------

class TestVolumeConstant:
    def test_rank_one_is_empty_product(self):
        assert bg.c_r_constant(1) == 1.0

    def test_rank_two(self):
        assert abs(bg.c_r_constant(2) - math.pi) < 1e-10

    def test_rank_three(self):
        assert abs(bg.c_r_constant(3) - 2.0 * math.pi**2 / 3.0) < 1e-9

    def test_closed_form_family(self):
        # the rule is exact for the integrand's degree, so up to roundoff
        for r in range(1, 7):
            got = bg.c_r_constant(r)
            want = closed_volume_constant(r)
            assert abs(got - want) < 1e-13 * want

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            bg.c_r_constant(0)


# ---------------------------------------------------------------------------
# hat form matrix
# ---------------------------------------------------------------------------

class TestHatForm:
    def test_rank_one_is_line_curvature(self):
        model = LineBundleSumOverP1((2,), 0)
        metric = SplitBundleMetric(1, (2,))
        rng = np.random.default_rng(3)
        pts = random_total_points(rng, 25, model)
        w = bg.hat_form_matrix(metric, model, pts)
        f = curvature_matrix(metric, pts)[:, :, :, 0, 0]
        assert np.max(np.abs(w - f)) < 1e-12

    def test_split_closed_form(self, twisted_metric):
        model = LineBundleSumOverP1((0, 1), 4)
        rng = np.random.default_rng(4)
        pts = random_total_points(rng, 40, model)
        z, xi = pts[:, 0], pts[:, 1]
        q = 1.0 + np.abs(z) ** 2
        qd = 1.0 + q * np.abs(xi) ** 2
        w = bg.hat_form_matrix(twisted_metric, model, pts)
        assert np.max(np.abs(w[:, 1, 1] - q / qd**2)) < 1e-12
        want_zz = np.abs(xi) ** 2 / qd - np.abs(z) ** 2 * np.abs(xi) ** 4 / qd**2
        assert np.max(np.abs(w[:, 0, 0] - want_zz)) < 1e-12
        assert np.max(np.abs(w[:, 0, 1] - xi * np.conj(z) / qd**2)) < 1e-12

    def test_matches_log_weight_hessian(self, twisted_metric):
        model = LineBundleSumOverP1((0, 1), 4)
        rng = np.random.default_rng(5)
        pts = random_total_points(rng, 12, model, radius=0.9)

        def log_weight(p):
            h = twisted_metric.matrix(p[:, :1])
            pinv = np.linalg.inv(h)
            lam = np.concatenate([np.ones((p.shape[0], 1)), p[:, 1:]], axis=1)
            return np.log(np.einsum("ni,nij,nj->n", lam, pinv, np.conj(lam)).real)

        fd = complex_hessian(log_weight, pts)
        w = bg.hat_form_matrix(twisted_metric, model, pts)
        assert np.max(np.abs(w - fd)) < 1e-8

    def test_trivial_bundle_gives_fiber_fs_block(self):
        model = TrivialBundleOverPm(1, 2, 3)
        metric = ConstantBundleMetric(1, np.eye(2))
        rng = np.random.default_rng(6)
        pts = random_total_points(rng, 30, model)
        w = bg.hat_form_matrix(metric, model, pts)
        assert np.max(np.abs(w[:, 0, :])) < 1e-14
        assert np.max(np.abs(w[:, :, 0])) < 1e-14
        assert np.max(np.abs(w[:, 1:, 1:] - fs_matrix(pts[:, 1:]))) < 1e-12

    def test_hermitian(self, twisted_metric):
        model = LineBundleSumOverP1((0, 1), 4)
        rng = np.random.default_rng(7)
        pts = random_total_points(rng, 30, model)
        w = bg.hat_form_matrix(twisted_metric, model, pts)
        assert np.max(np.abs(w - np.conj(np.swapaxes(w, 1, 2)))) < 1e-13

    @pytest.mark.parametrize("model", [
        LineBundleSumOverP1((0, 1), 3),
        LineBundleSumOverP1((0, 1, 1), 3),
        TrivialBundleOverPm(2, 2, 2),
    ], ids=lambda model: model.label)
    def test_base_runs_match_row_by_row(self, model):
        # base-only data is evaluated once per run of equal base rows and
        # broadcast over the run: rule order (runs of one base node), a
        # shuffle (runs of length one) and one base node in two
        # non-adjacent runs of different lengths must agree node by node
        metric = base_varying_metric(model.m, model.r)
        rule = bg.adapted_total_rule(metric, model, n_radial=4)
        nf = bg.adapted_fiber_rule(model).points.shape[0]
        blocks = rule.points.reshape(-1, nf, model.n)
        nb = blocks.shape[0]
        pts = blocks[[0, nb // 3, 2 * nb // 3, nb - 1]].reshape(-1, model.n)
        perm = np.random.default_rng(8).permutation(pts.shape[0])
        split = np.r_[0:3, nf:nf + 5, 3:5]
        for fn in (lambda p: bg.hat_form_matrix(metric, model, p),
                   lambda p: hat_weight(metric, p, model)):
            whole = fn(pts)
            scale = np.max(np.abs(whole))
            assert np.max(np.abs(fn(pts[perm]) - whole[perm])) <= 1e-14 * scale
            assert np.max(np.abs(fn(pts[split]) - whole[split])) <= 1e-14 * scale


class TestVolumeCoefficients:
    def test_split_closed_form(self, twisted_metric):
        model = LineBundleSumOverP1((0, 1), 4)
        rng = np.random.default_rng(8)
        pts = random_total_points(rng, 40, model)
        z, xi = pts[:, 0], pts[:, 1]
        q = 1.0 + np.abs(z) ** 2
        qd = 1.0 + q * np.abs(xi) ** 2
        e = bg.volume_coefficients(twisted_metric, FS1, model, pts)
        assert e.shape == (2, 40)
        assert np.max(np.abs(e[0] - np.abs(xi) ** 2 / qd**3)) < 1e-12
        assert np.max(np.abs(e[1] - 1.0 / (q * qd**2))) < 1e-12
        assert np.all(e[1] > 0)

    def test_trivial_bundle_has_no_subleading_weight(self):
        model = TrivialBundleOverPm(1, 2, 2)
        metric = ConstantBundleMetric(1, np.eye(2))
        rng = np.random.default_rng(9)
        pts = random_total_points(rng, 25, model)
        e = bg.volume_coefficients(metric, FS1, model, pts)
        assert np.max(np.abs(e[0])) < 1e-14
        assert np.all(e[1] > 0)

    def test_rank_one_volume_is_reduced_base_volume(self):
        # k^{-m} (k omega)^m / m! scaled by (2 pi)^{-m} integrates to 1 on P^1
        model = LineBundleSumOverP1((0,), 4)
        metric = SplitBundleMetric(1, (0,))
        rule = total_rule(model, n_radial=16)
        dens = bg.level_volume_density(metric, FS1, model, rule.points)
        assert abs(integrate(rule, dens) - 1.0) < 1e-10

    def test_twisted_volume_closed_form(self, twisted_metric):
        # V_k = 2 pi + pi / k for the split O(0)+O(1) model (beta integrals)
        model = LineBundleSumOverP1((0, 1), 3)
        rule = bg.adapted_total_rule(twisted_metric, model, n_radial=14)
        dens = bg.level_volume_density(twisted_metric, FS1, model, rule.points)
        want = 2.0 * math.pi + math.pi / 3.0
        assert abs(integrate(rule, dens) - want) < 1e-8

    def test_adapted_rule_matches_plain_on_constant_metric(self):
        # with constant H the adapted frame is a fixed affine map, so both
        # rules integrate the flat-model density to the same volume
        model = TrivialBundleOverPm(1, 2, 3)
        metric = ConstantBundleMetric(1, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))
        plain = total_rule(model, n_radial=12)
        adapted = bg.adapted_total_rule(metric, model, n_radial=12)
        dens_p = bg.level_volume_density(metric, FS1, model, plain.points)
        dens_a = bg.level_volume_density(metric, FS1, model, adapted.points)
        assert abs(integrate(plain, dens_p) - integrate(adapted, dens_a)) < 1e-9
        assert abs(integrate(adapted, dens_a) - 2.0 * math.pi) < 1e-9

    @pytest.mark.parametrize("bad", [0.0, math.nan], ids=["zero", "nan"])
    def test_degenerate_density_names_the_node(self, monkeypatch, bad):
        # fault injection: the volume coefficients vanish, or turn NaN,
        # at node 4
        model = LineBundleSumOverP1((0,), 4)
        metric = SplitBundleMetric(1, (0,))
        rule = total_rule(model, n_radial=4)
        original = bg.volume_coefficients

        def faulty(*args):
            e = original(*args)
            e[:, 4] = bad
            return e

        monkeypatch.setattr(bg, "volume_coefficients", faulty)
        with pytest.raises(NumericalGuardError) as err:
            bg.level_volume_density(metric, FS1, model, rule.points)
        message = str(err.value)
        assert f"density {bad:.3e} at node 4 of {len(rule.points)}" in message
        assert "p1-sum(0,)-k4 with bundle metric split(0,)" in message


# ---------------------------------------------------------------------------
# fiber averages
# ---------------------------------------------------------------------------

class TestFiberAverage:
    def test_round_trip_constant_metrics(self):
        # averaging the induced pairing over the fiber returns the bundle
        # metric exactly, for any constant positive input
        rng = np.random.default_rng(10)
        for r in (2, 3):
            model = ProjectivePoint(r)
            rule = fiber_rule(model, n_radial=18)
            z = np.zeros((1, 0), dtype=complex)
            for _ in range(10):
                h = random_hermitian_pd(rng, r)
                metric = ConstantBundleMetric(0, h)
                out = bg.fiber_push_forward(metric, FubiniStudy(0), model, z, rule=rule)
                assert np.max(np.abs(out.g_tilde[0] - h)) < 1e-9
                assert np.max(np.abs(out.psi[0] - np.eye(r))) < 1e-9

    def test_round_trip_over_base(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        rng = np.random.default_rng(11)
        z = 1.2 * (rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)))
        out = bg.fiber_push_forward(twisted_metric, FS1, model, z, rule=twisted_rules[1])
        assert np.max(np.abs(out.g_tilde - twisted_metric.matrix(z))) < 1e-9

    def test_fiber_volume_is_frame_independent(self):
        # the induced fiber form differs from the standard one by a linear
        # change of frame, so its total volume is the cohomological value
        rng = np.random.default_rng(12)
        for r, want in ((2, 2.0 * math.pi), (3, (2.0 * math.pi) ** 2 / 2.0)):
            model = ProjectivePoint(r)
            rule = fiber_rule(model, n_radial=18)
            pts = np.zeros((rule.points.shape[0], r - 1), dtype=complex)
            pts[:, :] = rule.points
            for _ in range(3):
                h = random_hermitian_pd(rng, r)
                metric = ConstantBundleMetric(0, h)
                w = bg.hat_form_matrix(metric, model, pts)
                dens = np.linalg.det(w).real * 2.0 ** (r - 1)
                assert abs(integrate(rule, dens) - want) < 1e-9 * want

    def test_top_weight_gives_identity(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.array([[0.0], [0.4 + 0.3j], [-1.1j]], dtype=complex)
        out = bg.fiber_push_forward(twisted_metric, FS1, model, z, weight=1, rule=twisted_rules[1])
        assert np.max(np.abs(out.psi - np.eye(2))) < 1e-9

    def test_subleading_weight_closed_form(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.array([[0.0], [0.5 - 0.2j], [1.3 + 0.7j]], dtype=complex)
        out = bg.fiber_push_forward(twisted_metric, FS1, model, z, weight=0, rule=twisted_rules[1])
        want = np.diag([1.0 / 3.0, 2.0 / 3.0])
        assert np.max(np.abs(out.psi - want)) < 1e-8

    def test_subleading_weight_matches_mean_curvature_combination(self):
        # psi_{m-1} = (tr(M) I + M)/(r+1) with M the mean curvature
        model = LineBundleSumOverP1((2, 1), 3)
        metric = SplitBundleMetric(1, (2, 1))
        rule = fiber_rule(model, n_radial=16)
        z = np.array([[0.3 + 0.1j], [-0.8j], [1.4]], dtype=complex)
        out = bg.fiber_push_forward(metric, FS1, model, z, weight=0, rule=rule)
        m = mean_curvature(metric, FS1, z)
        tr = np.einsum("naa->n", m)[:, None, None]
        want = (tr * np.eye(2) + m) / 3.0
        assert np.max(np.abs(out.psi - want)) < 1e-7

    def test_flat_metric_has_zero_subleading_average(self):
        model = TrivialBundleOverPm(1, 2, 3)
        metric = ConstantBundleMetric(1, np.eye(2))
        z = np.array([[0.2 + 0.2j], [0.9]], dtype=complex)
        out = bg.fiber_push_forward(metric, FS1, model, z, weight=0, rule=fiber_rule(model, 16))
        assert np.max(np.abs(out.psi)) < 1e-9

    def test_fiber_volume_factor_matches_hat_form_block(self):
        # _fiber_measure takes H^{-1} at the base nodes from the adapted
        # frame and uses the closed form det(W_fib) = det(H^{-1}) / q^r;
        # compare it with the per-node determinant of the fiber block of
        # hat_form_matrix, on metrics that vary over the base and fiber
        # points that differ from one base node to the next
        def kfn(z):
            q = 1.0 + np.abs(z[:, 0]) ** 2
            out = np.zeros((z.shape[0], 3, 3), dtype=complex)
            out[:, 0, 1] = 0.3 * z[:, 0] / q
            out[:, 1, 2] = 0.2j * z[:, 0] ** 2 / q ** 2
            out[:, 0, 0] = 0.4 / q
            return out + np.conj(np.swapaxes(out, 1, 2))

        split = SplitBundleMetric(1, (0, 1, 2))
        perturbed = PerturbedBundleMetric(split, MatrixField(1, 3, fn=kfn), 0.5)
        model = LineBundleSumOverP1((0, 1, 2), 3)
        rng = np.random.default_rng(13)
        nb, nf = 5, 7
        z = 0.8 * (rng.standard_normal((nb, 1)) + 1j * rng.standard_normal((nb, 1)))
        xi = 0.9 * (rng.standard_normal((nb, nf, 2)) + 1j * rng.standard_normal((nb, nf, 2)))
        pts = np.concatenate([np.repeat(z, nf, axis=0), xi.reshape(nb * nf, 2)], axis=1)
        lam = np.concatenate([np.ones((nb * nf, 1), dtype=complex), xi.reshape(nb * nf, 2)], axis=1)
        # unit weights and Jacobian: the measure is det(W_fib) / q * 4 / c_3
        unit = ChartRule(np.zeros((nf, 2), dtype=complex), np.ones(nf))
        scale = 2.0 ** 2 / ((2.0 * math.pi) ** 2 / 6.0)
        for metric in (split, perturbed):
            meas, got_lam = bg._fiber_measure(model, unit, pts, np.ones(nb), metric.inverse(z))
            assert np.array_equal(got_lam.reshape(nb * nf, 3), lam)
            h = metric.matrix(pts[:, :1])
            q = np.einsum("ni,ni->n", lam, np.linalg.solve(h, np.conj(lam)[..., None])[..., 0]).real
            detwf = meas * q.reshape(nb, nf) / scale
            w = bg.hat_form_matrix(metric, model, pts)
            want = np.linalg.det(w[:, 1:, 1:]).real.reshape(nb, nf)
            assert np.max(np.abs(detwf - want) / np.abs(want)) < 1e-12

    def test_weight_index_validated(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.zeros((1, 1), dtype=complex)
        with pytest.raises(ValueError, match="weight index"):
            bg.fiber_push_forward(twisted_metric, FS1, model, z, weight=2, rule=twisted_rules[1])


class TestFiberLayerPaysOnce:
    """Base-only data is evaluated once per base node: each call below is
    counted in rows on an instance whose method records them."""

    @staticmethod
    def counted(monkeypatch, obj, method):
        rows = []
        original = getattr(obj, method)

        def record(z):
            rows.append(np.asarray(z).shape[0])
            return original(z)

        monkeypatch.setattr(obj, method, record)
        return rows

    @staticmethod
    def case():
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.array([[0.0], [0.4 + 0.3j], [-1.1j], [0.7]], dtype=complex)
        return model, z, bg.adapted_fiber_rule(model)

    def test_table_reads_the_base_once_per_node(self, monkeypatch):
        # the adapted frame's H^{-1} serves the fiber measure, and the base
        # form fills the volume coefficients once per base node
        model, z, rule = self.case()
        metric, kahler = SplitBundleMetric(1, (0, 1)), FubiniStudy(1)
        inverse = self.counted(monkeypatch, metric, "inverse")
        form = self.counted(monkeypatch, kahler, "matrix")
        table = bg.push_forward_table(metric, kahler, model, z, rule=rule)
        assert sum(form) == len(z) < len(z) * len(rule.points)
        assert sum(inverse) == 2 * len(z)  # the frame and hat_form_matrix
        assert not hasattr(table, "psi")

    def test_bare_pairing_inverts_once_per_node(self, monkeypatch):
        model, z, rule = self.case()
        metric = SplitBundleMetric(1, (0, 1))
        inverse = self.counted(monkeypatch, metric, "inverse")
        out = bg.fiber_push_forward(metric, FS1, model, z, rule=rule)
        assert sum(inverse) == len(z)
        assert np.max(np.abs(out.g_tilde - metric.matrix(z))) < 1e-9


def degree_case(m, r):
    """Model of rank r over P^m with a metric whose off-diagonal part
    varies over the base, so no fiber rotation leaves the integrands
    invariant."""
    model = ProjectiveSpaceBase(m, (0,) + (1,) * (r - 1), 2)
    return model, base_varying_metric(m, r), FubiniStudy(m)


def degree_points(m):
    """Three base points where the metric's off-diagonal part differs.  The
    push-forward table is pointwise in the base, so a few points test the
    fiber rule as well as a base rule would, at a fraction of its nodes."""
    rng = np.random.default_rng(5)
    return 0.7 * (rng.standard_normal((3, m))
                  + 1j * rng.standard_normal((3, m)))


def max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


DEGREE_CASES = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (1, 4)]


class TestAdaptedFiberDegree:
    """In the metric-adapted frame the fiber integrands have frequency at
    most m + 1 in each fiber angle and, after the angular average, degree
    at most m + r - 1 in t = s/(1+s).  So m + 2 angles and ceil((m + r)/2)
    Gauss-Legendre nodes integrate them exactly: the derived rule gives a
    rich reference's results to roundoff, and one angle or one radial node
    fewer moves them far enough for the self-check to stop."""

    @staticmethod
    def reference_rule(model):
        # 16 radial nodes, 8 on a three-dimensional fiber, where 16 do not
        # fit in memory; 2 (m + 1) + 1 angles resolve every frequency up to
        # twice the degree bound
        n_radial = 16 if model.fiber_dim < 3 else 8
        return fiber_rule(model, n_radial, n_angular=2 * model.m + 3)

    @pytest.mark.parametrize("m, r", DEGREE_CASES)
    def test_derived_rule_reproduces_the_full_angular_grid(
            self, m, r, monkeypatch):
        model, metric, kahler = degree_case(m, r)
        z = degree_points(m)
        derived = bg.adapted_fiber_rule(model)
        assert derived.points.shape[0] == fiber_rule(
            model, (m + r + 1) // 2, n_angular=m + 2).points.shape[0]
        reference = self.reference_rule(model)
        table = bg.push_forward_table(metric, kahler, model, z, rule=derived)
        want_table = bg.push_forward_table(metric, kahler, model, z,
                                           rule=reference)
        assert max_rel(table.m_tilde, want_table.m_tilde) <= 1e-12
        if model.n > 3:
            return  # the reference total rule would not fit in memory

        # the direct route on the same base rule, with the reference fiber
        direct = bg.rho_direct(metric, kahler, model,
                               rule=bg.adapted_total_rule(metric, model, 2))
        monkeypatch.setattr(bg, "adapted_fiber_rule",
                            lambda model, raise_degree=0: reference)
        want_direct = bg.rho_direct(
            metric, kahler, model, rule=bg.adapted_total_rule(metric, model, 2))
        assert max_rel(direct.gram.matrix, want_direct.gram.matrix) <= 1e-12
        mass, want_mass = direct.total_mass(), want_direct.total_mass()
        assert abs(mass - want_mass) <= 1e-12 * want_mass
        assert abs(direct.volume() - want_direct.volume()) \
            <= 1e-12 * want_direct.volume()

    @pytest.mark.parametrize("m, r", DEGREE_CASES)
    def test_self_check_passes_at_the_derived_degree(self, m, r):
        model, metric, kahler = degree_case(m, r)
        table = bg.push_forward_table(metric, kahler, model, degree_points(m),
                                      rule=bg.adapted_fiber_rule(model))
        move = bg.adapted_fiber_check(metric, kahler, model, table)
        assert 0.0 <= move <= 1e-12

    @pytest.mark.parametrize("m, r", DEGREE_CASES)
    def test_one_degree_below_trips_the_self_check(self, m, r, monkeypatch):
        model, metric, kahler = degree_case(m, r)
        monkeypatch.setattr(bg, "adapted_fiber_degree", lambda model: model.m)
        table = bg.push_forward_table(metric, kahler, model, degree_points(m),
                                      rule=bg.adapted_fiber_rule(model))
        with pytest.raises(NumericalGuardError) as trip:
            bg.adapted_fiber_check(metric, kahler, model, table)
        message = str(trip.value)
        assert model.label in message
        assert f"from {m + 1} to {m + 3} angles" in message
        assert f"trigonometric polynomials of degree {m} " in message

    @pytest.mark.parametrize("m, r", [case for case in DEGREE_CASES
                                      if (sum(case) + 1) // 2 >= 2])
    def test_one_radial_node_below_trips_the_self_check(
            self, m, r, monkeypatch):
        # degree m + r - 3 takes one Gauss-Legendre node off the derived
        # count (m + r + 1) // 2
        model, metric, kahler = degree_case(m, r)
        n_radial = (m + r + 1) // 2
        monkeypatch.setattr(bg, "adapted_fiber_radial_degree",
                            lambda model: model.m + model.r - 3)
        table = bg.push_forward_table(metric, kahler, model, degree_points(m),
                                      rule=bg.adapted_fiber_rule(model))
        with pytest.raises(NumericalGuardError) as trip:
            bg.adapted_fiber_check(metric, kahler, model, table)
        message = str(trip.value)
        assert model.label in message
        assert f"from {n_radial - 1} to {n_radial + 1} radial nodes" \
            in message
        assert f"polynomials of degree {m + r - 3} in t" in message

    def test_expansion_variance_matches_a_finer_rule(self):
        # the density variance is quadratic in the density, of degree
        # m + r in t: at (m, r) = (1, 3) the routes' rule is one degree
        # short of it and the variance's rule is not
        cfg = ExperimentConfig(kind="p1-sum", degrees=(0, 1, 1), k_min=3,
                               k_max=3, n_radial=8)
        table, _ = suites.trace_route_table(cfg)
        res = suites.expansion_job(cfg, 3, table)
        direct, _ = suites._density_routes(cfg, 3, table)
        model = direct.model

        def variance(rule):
            dens = direct.density(rule.points)
            measure = direct.measure_density(rule.points)
            return integrate(rule, (dens - res["rho_mean"]) ** 2
                             * measure) / res["volume"]

        # four degrees up: m + 6 = 7 angles and 4 radial nodes
        want = variance(bg.adapted_total_rule(
            direct.metric, model, cfg.n_radial, raise_degree=4))
        assert abs(res["rho_variance"] - want) <= 1e-10 * want
        assert abs(variance(direct.rule) - want) > 1e-2 * want


    def test_expansion_job_reads_the_kept_density(self, monkeypatch):
        # the mass and the largest deviation read the density the direct
        # route kept at its nodes: only the raised-degree rule of the
        # variance evaluates it again
        original = bg.DirectDensity.density
        calls = []

        def counted(self, pts):
            calls.append(np.asarray(pts).shape[0])
            return original(self, pts)

        monkeypatch.setattr(bg.DirectDensity, "density", counted)
        cfg = ExperimentConfig(kind="p1-sum", degrees=(0, 1), k_min=3,
                               k_max=3, n_radial=8)
        table, _ = suites.trace_route_table(cfg)
        res = suites.expansion_job(cfg, 3, table)
        model = build_model(cfg, 3)
        fine = bg.adapted_total_rule(build_metric(cfg), model, cfg.n_radial,
                                     raise_degree=1)
        assert calls == [fine.points.shape[0]]
        assert fine.points.shape[0] != res["nodes"]
        assert abs(res["mass"] - 9.0) < 1e-8

class TestLevelMetric:
    def test_twisted_closed_form(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.array([[0.0], [0.6 + 0.4j]], dtype=complex)
        table = bg.push_forward_table(twisted_metric, FS1, model, z,
                                      rule=twisted_rules[1])
        got = bg.level_metric_values(table, model.k)
        h = twisted_metric.matrix(z)
        want = h * twisted_level_factors(4)[None, None, :]
        assert np.max(np.abs(got - want)) < 1e-9

    def test_trivial_is_unchanged(self):
        model = TrivialBundleOverPm(1, 2, 5)
        metric = ConstantBundleMetric(1, np.eye(2))
        z = np.array([[0.3], [1.0 + 1.0j]], dtype=complex)
        table = bg.push_forward_table(metric, FS1, model, z,
                                      rule=fiber_rule(model, 16))
        got = bg.level_metric_values(table, model.k)
        assert np.max(np.abs(got - np.eye(2))) < 1e-9


# ---------------------------------------------------------------------------
# Grams
# ---------------------------------------------------------------------------

def unit_metric(rule):
    """The rank-one unit metric at every node of `rule`."""
    return np.ones((rule.points.shape[0], 1, 1))


class TestL2Gram:
    def test_monomial_gram_closed_form(self):
        # degree-5 weight over P^1: diagonal Gram, entries j!(5-j)!/6!
        model = LineBundleSumOverP1((0,), 5)
        basis = build_section_basis(model)
        rule = base_rule(model, n_radial=16)
        z = rule.points[:, 0]
        weight = (1.0 + np.abs(z) ** 2) ** (-5.0) * FS1.reduced_volume_density(rule.points)
        gram = bg.l2_gram(basis, rule, weight, unit_metric(rule))
        off = gram.matrix - np.diag(np.diag(gram.matrix))
        assert np.max(np.abs(off)) < 1e-12
        want = np.array([math.factorial(j) * math.factorial(5 - j) / math.factorial(6) for j in range(6)])
        assert np.max(np.abs(np.diag(gram.matrix).real - want)) < 1e-12

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_linearity(self, c):
        model = LineBundleSumOverP1((0,), 2)
        basis = build_section_basis(model)
        rule = base_rule(model, n_radial=8)
        z = rule.points[:, 0]
        weight = (1.0 + np.abs(z) ** 2) ** (-2.0) * FS1.reduced_volume_density(rule.points)
        g1 = bg.l2_gram(basis, rule, weight, unit_metric(rule)).matrix
        g2 = bg.l2_gram(basis, rule, c * weight, unit_metric(rule)).matrix
        assert np.max(np.abs(g2 - c * g1)) < 1e-12 * max(1.0, c)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_guarded(self):
        model = LineBundleSumOverP1((0,), 2)
        basis = build_section_basis(model)
        rule = base_rule(model, n_radial=8)
        weight = np.ones(rule.points.shape[0])
        weight[3] = np.inf
        with pytest.raises(NumericalGuardError, match="finite"):
            bg.l2_gram(basis, rule, weight, unit_metric(rule))

    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_einsum_oracle(self, r):
        # the pairing sum_n w_n conj(c_nia) H_nab c_njb, written out as
        # one einsum over all four operands
        model = TrivialBundleOverPm(1, r, 3)
        basis = build_section_basis(model)
        rule = base_rule(model, n_radial=10)
        z = rule.points
        hk = base_varying_metric(1, r).matrix(z)
        weight = np.exp(-3.0 * FS1.potential(z)) * FS1.reduced_volume_density(z)
        c = basis.eval_components(z)
        want = np.einsum("n,nia,nab,njb->ij", rule.weights * weight,
                         np.conj(c), hk, c)
        got = bg.l2_gram(basis, rule, weight, hk).matrix
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_indefinite_metric_guarded(self):
        # an indefinite level metric gives an indefinite Gram: the guard
        # reports it, the pairing itself factors nothing
        model = TrivialBundleOverPm(1, 2, 2)
        basis = build_section_basis(model)
        rule = base_rule(model, n_radial=8)
        hk = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex),
                             (rule.points.shape[0], 2, 2))
        gram = bg.l2_gram(basis, rule, np.ones(rule.points.shape[0]), hk)
        with pytest.raises(NumericalGuardError, match="positive definite"):
            gram.guard()


# ---------------------------------------------------------------------------
# level endomorphism
# ---------------------------------------------------------------------------

class TestBergmanEndomorphism:
    def test_point_base_is_identity(self):
        rng = np.random.default_rng(13)
        model = ProjectivePoint(3)
        metric = ConstantBundleMetric(0, random_hermitian_pd(rng, 3))
        rule = base_rule(model, 12)
        table = bg.push_forward_table(metric, FubiniStudy(0), model,
                                      rule.points, rule=fiber_rule(model, 12))
        out = bg.bergman_endomorphism(metric, FubiniStudy(0), model, rule, table)
        b = out.endomorphism(np.zeros((1, 0), dtype=complex))
        assert np.max(np.abs(b[0] - np.eye(3))) < 1e-10

    def test_flat_trivial_closed_form(self):
        model = TrivialBundleOverPm(1, 2, 3)
        metric = ConstantBundleMetric(1, np.eye(2))
        [out] = level_sweep(metric, FS1, model, [model.k], base_rule(model, 16),
                            fiber_rule(model, 16))
        rng = np.random.default_rng(14)
        z = 1.5 * (rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1)))
        b = out.endomorphism(z)
        assert np.max(np.abs(b - 4.0 * np.eye(2))) < 1e-8
        scalars = np.einsum("naa->n", b).real / 2.0
        assert np.std(scalars) / np.mean(scalars) < 1e-6

    def test_twisted_closed_form(self, twisted_sweep):
        out = next(b for b in twisted_sweep if b.k == 4)
        rng = np.random.default_rng(15)
        z = 1.2 * (rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1)))
        b = out.endomorphism(z)
        assert np.max(np.abs(b - twisted_bergman_oracle(4))) < 5e-8

    def test_hermitian_with_respect_to_metric(self, twisted_sweep, twisted_metric):
        out = next(b for b in twisted_sweep if b.k == 5)
        rng = np.random.default_rng(16)
        z = 1.1 * (rng.standard_normal((25, 1)) + 1j * rng.standard_normal((25, 1)))
        b = out.endomorphism(z)
        h = twisted_metric.matrix(z)
        hb = np.einsum("nab,nbc->nac", h, b)
        assert np.max(np.abs(hb - np.conj(np.swapaxes(hb, 1, 2)))) < 1e-9

    def test_bookkeeping_identity(self, twisted_sweep, twisted_metric, twisted_rules):
        # integral of the trace against the reduced base volume equals the
        # trace of (level Gram)^{-1} (plain-metric Gram)
        out = next(b for b in twisted_sweep if b.k == 3)
        rule = twisted_rules[0]
        z = rule.points
        dens = out.endomorphism(z)
        lhs = integrate(rule, np.einsum("naa->n", dens).real * FS1.reduced_volume_density(z))
        weight = np.exp(-3.0 * FS1.potential(z)) * FS1.reduced_volume_density(z)
        plain = bg.l2_gram(out.basis, rule, weight, metric_values=twisted_metric.matrix(z))
        rhs = np.trace(np.linalg.solve(out.gram.matrix, plain.matrix)).real
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_condition_guard(self):
        model = LineBundleSumOverP1((0,), 45)
        metric = SplitBundleMetric(1, (0,))
        rule = base_rule(model, 24)
        table = bg.push_forward_table(metric, FS1, model, rule.points,
                                      rule=fiber_rule(model, 8))
        with pytest.raises(NumericalGuardError, match="lower k"):
            bg.bergman_endomorphism(metric, FS1, model, rule, table)

    def test_table_must_sit_on_the_rule_nodes(self, twisted_metric,
                                              twisted_rules):
        rule, fib = twisted_rules
        model = LineBundleSumOverP1((0, 1), 4)
        other = base_rule(model, 10)
        table = bg.push_forward_table(twisted_metric, FS1, model,
                                      other.points, rule=fib)
        with pytest.raises(ValueError, match="differ from the base rule"):
            bg.bergman_endomorphism(twisted_metric, FS1, model, rule, table)
        shifted = replace(table, points=rule.points + 1e-3)
        with pytest.raises(ValueError, match="differ from the base rule"):
            bg.bergman_endomorphism(twisted_metric, FS1, model, rule, shifted)

    def test_k_sweep_matches_closed_form_rate(self, twisted_sweep):
        # sup-norm distance of k^{-1} B_k from I; the closed form gives
        # dev(k) = (4/3)/(k + 2/3), whose log-log slope over k = 2..8 is
        # about -0.853 (the fitted value must match the closed form, not a
        # round number)
        z = np.array([[0.37 - 0.21j]], dtype=complex)
        ks, devs = [], []
        for out in twisted_sweep:
            if out.k > 8:
                continue
            b = out.endomorphism(z)[0]
            ks.append(out.k)
            devs.append(np.max(np.abs(b / out.k - np.eye(2))))
        oracle = (4.0 / 3.0) / (np.array(ks) + 2.0 / 3.0)
        assert np.max(np.abs(np.array(devs) - oracle)) < 1e-8
        slope = np.polyfit(np.log(ks), np.log(devs), 1)[0]
        oracle_slope = np.polyfit(np.log(ks), np.log(oracle), 1)[0]
        assert abs(slope - oracle_slope) < 1e-3
        assert abs(oracle_slope + 0.853) < 0.01


# ---------------------------------------------------------------------------
# density, two routes
# ---------------------------------------------------------------------------

class TestRho:
    def test_point_base_constant(self):
        model = ProjectivePoint(2)
        metric = ConstantBundleMetric(0, np.eye(2))
        rho = bg.rho_direct(metric, FubiniStudy(0), model, rule=total_rule(model, 16))
        rng = np.random.default_rng(17)
        pts = random_total_points(rng, 60, model)
        vals = rho.density(pts)
        assert np.max(np.abs(vals - 1.0 / math.pi)) < 1e-10
        assert np.var(vals) < 1e-10

    def test_normalization_across_models(self, twisted_density):
        # the density integrates to the section count
        assert abs(twisted_density.total_mass() - 9.0) < 1e-8

        model = TrivialBundleOverPm(1, 2, 2)
        metric = ConstantBundleMetric(1, np.eye(2))
        rho = bg.rho_direct(metric, FS1, model, rule=total_rule(model, 14))
        assert abs(rho.total_mass() - 6.0) < 1e-8

        model1 = LineBundleSumOverP1((0,), 4)
        rho1 = bg.rho_direct(SplitBundleMetric(1, (0,)), FS1, model1, rule=total_rule(model1, 14))
        assert abs(rho1.total_mass() - 5.0) < 1e-8

    def test_twisted_volume_exposed(self, twisted_density):
        assert abs(twisted_density.volume() - (2.0 * math.pi + math.pi / 3.0)) < 1e-8

    def test_level_measure_computed_once(self, twisted_metric, monkeypatch):
        # rho_direct keeps the level measure it computed at its rule nodes;
        # the mass and the volume read it instead of recomputing it
        original = bg.level_volume_density
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bg, "level_volume_density", counted)
        model = LineBundleSumOverP1((0, 1), 3)
        rule = bg.adapted_total_rule(twisted_metric, model, n_radial=8)
        rho = bg.rho_direct(twisted_metric, FS1, model, rule=rule)
        rho.total_mass()
        rho.volume()
        assert len(calls) == 1
        assert np.array_equal(
            rho.measure, original(twisted_metric, FS1, model, rule.points))

    def test_direct_route_pays_once(self, twisted_metric, monkeypatch):
        # rho_direct pairs one section table at its rule nodes and keeps
        # the density there; the mass reads it, with no second table and
        # no second hat weight
        rows, weights = [], []
        table = SectionBasis.eval_embedding
        weight = bg.hat_weight

        def counted_table(self, pts):
            rows.append(np.asarray(pts).shape[0])
            return table(self, pts)

        def counted_weight(*args, **kwargs):
            weights.append(args)
            return weight(*args, **kwargs)

        monkeypatch.setattr(SectionBasis, "eval_embedding", counted_table)
        monkeypatch.setattr(bg, "hat_weight", counted_weight)
        model = LineBundleSumOverP1((0, 1), 3)
        rule = bg.adapted_total_rule(twisted_metric, model, n_radial=8)
        rho = bg.rho_direct(twisted_metric, FS1, model, rule=rule)
        mass = rho.total_mass()
        assert sum(rows) == rule.points.shape[0]
        assert len(weights) == 1
        assert abs(mass - 9.0) < 1e-8
        np.testing.assert_array_equal(rho.node_density,
                                      rho.density(rule.points))

    def test_metric_evaluated_once_per_base_node(self, monkeypatch):
        # H and its derivative tables depend on the base point alone: the
        # push-forward and the direct density pass the metric base nodes,
        # never the fiber nodes above them
        metric = base_varying_metric(1, 2)
        model = LineBundleSumOverP1((0, 1), 3)
        rule = base_rule(model, n_radial=6)
        fib = bg.adapted_fiber_rule(model)
        total = bg.adapted_total_rule(metric, model, n_radial=6)
        rows = {}
        for name in ("matrix", "d_matrix", "dd_matrix", "inverse"):
            def counted(z, name=name, method=getattr(metric, name)):
                rows.setdefault(name, []).append(np.asarray(z).shape[0])
                return method(z)
            monkeypatch.setattr(metric, name, counted)
        bg.push_forward_table(metric, FS1, model, rule.points, rule=fib)
        bg.rho_direct(metric, FS1, model, rule=total)
        assert set(rows) == {"matrix", "d_matrix", "dd_matrix", "inverse"}
        nb = rule.points.shape[0]
        assert total.points.shape[0] == nb * fib.points.shape[0]
        assert max(max(calls) for calls in rows.values()) <= nb

    def test_direct_route_matches_closed_form(self, twisted_density):
        rng = np.random.default_rng(18)
        pts = random_total_points(rng, 200, twisted_density.model)
        got = twisted_density.density(pts)
        want = twisted_rho_oracle(pts, 3)
        assert np.max(np.abs(got - want) / want) < 1e-6

    def test_trace_route_matches_closed_form(self, twisted_metric, twisted_sweep):
        out = next(b for b in twisted_sweep if b.k == 3)
        rng = np.random.default_rng(19)
        pts = random_total_points(rng, 200, out.model)
        got = bg.rho_via_trace(out, pts)
        want = twisted_rho_oracle(pts, 3)
        assert np.max(np.abs(got - want) / want) < 1e-6

    def test_routes_agree_pointwise(self, twisted_density, twisted_sweep):
        out = next(b for b in twisted_sweep if b.k == 3)
        rng = np.random.default_rng(20)
        pts = random_total_points(rng, 200, out.model)
        a = twisted_density.density(pts)
        b = bg.rho_via_trace(out, pts)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-6

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_projector_properties(self, xr, xi_, zr, zi, seed):
        # rank-one, trace-one, idempotent, self-adjoint for the metric
        rng = np.random.default_rng(seed)
        h = random_hermitian_pd(rng, 2)
        metric = ConstantBundleMetric(1, h)
        z = np.array([[zr + 1j * zi]], dtype=complex)
        lam = np.array([[1.0, xr + 1j * xi_]], dtype=complex)
        proj = bg.dual_point_projector(metric, z, lam)[0]
        assert abs(np.trace(proj) - 1.0) < 1e-12
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        hp = h @ proj
        assert np.max(np.abs(hp - hp.conj().T)) < 1e-12
        # projective invariance of the covector representative
        proj2 = bg.dual_point_projector(metric, z, (0.3 - 1.7j) * lam)[0]
        assert np.max(np.abs(proj2 - proj)) < 1e-12

    def test_zero_covector_rejected(self):
        metric = ConstantBundleMetric(1, np.eye(2))
        z = np.zeros((1, 1), dtype=complex)
        with pytest.raises(ValueError, match="covector"):
            bg.dual_point_projector(metric, z, np.zeros((1, 2), dtype=complex))


# ---------------------------------------------------------------------------
# first-order coefficient candidates
# ---------------------------------------------------------------------------

class TestFirstCorrection:
    def test_flat_everything_vanishes(self):
        metric = ConstantBundleMetric(1, np.eye(2))
        flat = FlatChart(1)
        model = TrivialBundleOverPm(1, 2, 3)
        z = np.array([[0.2 + 0.1j], [1.0]], dtype=complex)
        assert np.max(np.abs(bg.a1_formula(metric, flat, z))) < 1e-12
        alt = bg.a1_alternative(metric, flat, model, z, rule=fiber_rule(model, 12))
        assert np.max(np.abs(alt)) < 1e-9

    def test_trivial_over_p1(self):
        metric = ConstantBundleMetric(1, np.eye(2))
        model = TrivialBundleOverPm(1, 2, 3)
        z = np.array([[0.0], [0.7 - 0.4j], [1.6j]], dtype=complex)
        # displayed combination: ((r+1)/2r) S I with S = 2
        got = bg.a1_formula(metric, FS1, z)
        assert np.max(np.abs(got - 1.5 * np.eye(2))) < 1e-10
        # proof-route combination: (M + S/2 I) - psi_0 = I, the coefficient
        # actually realized by the level endomorphism (k+1) I
        alt = bg.a1_alternative(metric, FS1, model, z, rule=fiber_rule(model, 16))
        assert np.max(np.abs(alt - np.eye(2))) < 1e-9

    def test_twisted_values_and_tracefree_part(self, twisted_metric, twisted_rules):
        model = LineBundleSumOverP1((0, 1), 4)
        z = np.array([[0.0], [0.5 + 0.5j], [-1.2]], dtype=complex)
        got = bg.a1_formula(twisted_metric, FS1, z)
        assert np.max(np.abs(got - np.diag([1.0, 2.0]))) < 1e-8
        m = mean_curvature(twisted_metric, FS1, z)
        tracefree = m - 0.5 * np.einsum("naa->n", m)[:, None, None] * np.eye(2)
        got_tf = got - 0.5 * np.einsum("naa->n", got)[:, None, None] * np.eye(2)
        assert np.max(np.abs(got_tf - tracefree)) < 1e-8
        alt = bg.a1_alternative(twisted_metric, FS1, model, z, rule=twisted_rules[1])
        assert np.max(np.abs(alt - np.diag([2.0 / 3.0, 4.0 / 3.0]))) < 1e-7
        # the two candidates differ by the constant factor (r+1)/r
        assert np.max(np.abs(got - 1.5 * alt)) < 1e-7

    def test_homogeneous_inputs_give_constant_fields(self):
        metric = SplitBundleMetric(1, (1, 1))
        model = LineBundleSumOverP1((1, 1), 3)
        rng = np.random.default_rng(21)
        z = 1.3 * (rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1)))
        a = bg.a1_formula(metric, FS1, z)
        alt = bg.a1_alternative(metric, FS1, model, z, rule=fiber_rule(model, 16))
        assert np.max(np.abs(a - a[0])) < 1e-8
        assert np.max(np.abs(alt - alt[0])) < 1e-8
        assert np.max(np.abs(alt - np.eye(2))) < 1e-8

    def test_point_base_rejected_for_alternative(self):
        metric = ConstantBundleMetric(0, np.eye(2))
        model = ProjectivePoint(2)
        with pytest.raises(ValueError, match="base"):
            bg.a1_alternative(metric, FubiniStudy(0), model,
                              np.zeros((1, 0), dtype=complex),
                              rule=fiber_rule(model, 12))


# ---------------------------------------------------------------------------
# expansion fit
# ---------------------------------------------------------------------------

def fit_sweep(sweep, pts, orders=2):
    """Expansion fit of a list of level endomorphisms at `pts`."""
    return bg.expansion_fit([b.k for b in sweep],
                            [b.endomorphism(pts) for b in sweep],
                            sweep[0].model.m, orders=orders)


class TestExpansionFit:
    def test_short_grid_rejected(self, twisted_sweep):
        pts = np.array([[0.3]], dtype=complex)
        with pytest.raises(ValueError, match="at least 3"):
            fit_sweep(twisted_sweep[:2], pts)

    def test_plain_arrays_in_any_level_order(self):
        # B_k = k I + A exactly on a line base (m = 1): the fit recovers A
        # whatever order the levels come in, and rejects repeated levels
        # and values that do not match the levels
        a = np.array([[[0.5, 0.1j], [-0.1j, 2.0]]])
        ks = [5, 3, 4, 6]
        vals = [k * np.eye(2) + a for k in ks]
        fit = bg.expansion_fit(ks, vals, 1)
        assert list(fit.ks) == [3, 4, 5, 6]
        assert np.max(np.abs(fit.coefficients[0] - a)) < 1e-12
        assert np.max(fit.residuals) < 1e-12
        with pytest.raises(ValueError, match="repeated"):
            bg.expansion_fit([3, 4, 4], vals[:3], 1)
        with pytest.raises(ValueError, match="one level per entry"):
            bg.expansion_fit(ks, vals[:3], 1)

    def test_point_base_returns_exact_leading_term(self):
        rng = np.random.default_rng(22)
        metric = ConstantBundleMetric(0, random_hermitian_pd(rng, 2))
        model = ProjectivePoint(2)
        sweep = level_sweep(metric, FubiniStudy(0), model, [1, 2, 3, 4],
                            base_rule(model, 24), fiber_rule(model, 24))
        fit = fit_sweep(sweep, np.zeros((1, 0), dtype=complex))
        assert np.max(np.abs(fit.coefficients[0])) < 1e-10
        assert np.max(fit.residuals) < 1e-10

    def test_trivial_family_fits_exactly(self):
        # B_k = (k+1) I is linear in k, so the two-term fit recovers the
        # correction I exactly and leaves no residual; the recovered value
        # agrees with the proof-route candidate, not with the displayed
        # combination (3/2) I
        model = TrivialBundleOverPm(1, 2, 2)
        metric = ConstantBundleMetric(1, np.eye(2))
        sweep = level_sweep(metric, FS1, model, range(2, 7),
                            base_rule(model, 14), fiber_rule(model, 14))
        z = np.array([[0.4 - 0.6j], [0.0]], dtype=complex)
        fit = fit_sweep(sweep, z)
        assert np.max(np.abs(fit.coefficients[0] - np.eye(2))) < 1e-8
        assert np.max(fit.residuals) < 1e-8
        alt = bg.a1_alternative(metric, FS1, model, z, rule=fiber_rule(model, 14))
        a1 = bg.a1_formula(metric, FS1, z)
        assert np.max(np.abs(fit.coefficients[0] - alt)) < 1e-8
        gap = np.abs(fit.coefficients[0] - a1).max(axis=(-2, -1))
        assert np.min(gap) > 0.4

    def test_twisted_three_term_fit_recovers_corrections(self, twisted_sweep):
        z = np.array([[0.31 + 0.12j], [-0.8]], dtype=complex)
        sweep = [b for b in twisted_sweep if b.k >= 4]
        fit = fit_sweep(sweep, z, orders=3)
        # B_k,aa = (k+a+1)/(1+psi_a/k) expands with corrections
        # A_j = (-1)^j (( a+1) psi_a^j - psi_a^(j+1)), psi = (1/3, 2/3)
        a1 = np.diag([2.0 / 3.0, 4.0 / 3.0])
        a2 = np.diag([-2.0 / 9.0, -8.0 / 9.0])
        err1 = np.max(np.abs(fit.coefficients[0] - a1)) / np.max(np.abs(a1))
        assert err1 < 0.02
        # the unfitted k^-3 tail biases the last fitted coefficient, so the
        # three-term estimate of A_2 only lands within ~20 percent; adding
        # the fourth term absorbs the tail and tightens it by an order
        assert np.max(np.abs(fit.coefficients[1] - a2)) < 0.25 * np.max(np.abs(a2))
        assert np.max(fit.residuals) < 2e-3
        fit4 = fit_sweep(sweep, z, orders=4)
        assert np.max(np.abs(fit4.coefficients[1] - a2)) < 0.05 * np.max(np.abs(a2)) + 5e-3
        a3 = np.diag([2.0 / 27.0, 16.0 / 27.0])
        assert np.max(np.abs(fit4.coefficients[2] - a3)) < 0.35 * np.max(np.abs(a3))
        assert np.max(fit4.residuals) < 1e-4  # leftover is the unfitted k^{-3} tail

    def test_residual_against_true_correction_decays_at_second_order(self, twisted_sweep):
        # with the true correction subtracted, the sup-norm defect of
        # k^{-m} B_k - I - A1/k is |A2|/k^2 (1 + O(1/k))
        z = np.array([[0.2 - 0.4j]], dtype=complex)
        a1 = np.diag([2.0 / 3.0, 4.0 / 3.0])
        ks, devs = [], []
        for out in twisted_sweep:
            if out.k < 4:
                continue
            b = out.endomorphism(z)[0]
            ks.append(out.k)
            devs.append(np.max(np.abs(b / out.k - np.eye(2) - a1 / out.k)))
        slope = np.polyfit(np.log(ks), np.log(devs), 1)[0]
        assert abs(slope + 2.0) < 0.3


# ---------------------------------------------------------------------------
# fourth-order operator and the joint linearization
# ---------------------------------------------------------------------------

class TestScalarVariation:
    def test_zero_direction(self):
        z = np.array([[0.3 + 0.2j], [1.1]], dtype=complex)
        out = lichnerowicz_apply(FS1, lambda q: np.zeros(q.shape[0]), z)
        assert np.max(np.abs(out)) < 1e-9

    def test_killing_potential_in_kernel(self):
        z = np.array([[0.25], [0.4 - 0.7j], [1.3j]], dtype=complex)
        out = lichnerowicz_apply(FS1, eta_killing, z)
        assert np.max(np.abs(out)) < 5e-5

    def test_symbolic_oracle_on_p1(self):
        sp = pytest.importorskip("sympy")
        x, y, t = sp.symbols("x y t", real=True)
        q = 1 + x**2 + y**2
        eta = (x**2 - y**2) / q**2  # Re(z^2)/q^2
        phi = sp.log(q) - t * eta
        g = (sp.diff(phi, x, 2) + sp.diff(phi, y, 2)) / 4
        s = -(sp.diff(sp.log(g), x, 2) + sp.diff(sp.log(g), y, 2)) / (4 * g)
        ds = sp.diff(s, t).subs(t, 0)
        oracle = sp.lambdify((x, y), sp.simplify(ds), "numpy")

        rng = np.random.default_rng(23)
        z = 1.2 * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)))
        want = oracle(z[:, 0].real, z[:, 0].imag)
        got = lichnerowicz_apply(FS1, eta_quadratic, z)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-4 * scale

        linear = bg.scalar_curvature_variation(FS1, eta_quadratic, z)
        assert np.max(np.abs(linear - want)) < 2e-4 * scale

    def test_self_adjointness(self):
        model = LineBundleSumOverP1((0,), 1)
        rule = base_rule(model, n_radial=16)
        z = rule.points
        vol = FS1.reduced_volume_density(z)
        l_eta = lichnerowicz_apply(FS1, eta_quadratic, z)
        l_zeta = lichnerowicz_apply(FS1, zeta_quadratic, z)
        lhs = integrate(rule, l_eta * zeta_quadratic(z) * vol)
        rhs = integrate(rule, eta_quadratic(z) * l_zeta * vol)
        assert abs(lhs - rhs) < 1e-5


class TestCurvatureVariation:
    def test_matches_difference_quotient(self, twisted_metric):
        rng = np.random.default_rng(24)
        a = random_hermitian_pd(rng, 2) - 1.5 * np.eye(2)
        b = random_hermitian_pd(rng, 2) - 1.5 * np.eye(2)

        def kfn(z):
            return (a[None, :, :] * eta_killing(z)[:, None, None]
                    + b[None, :, :] * profile_axis(z)[:, None, None])

        kfield = MatrixField(1, 2, fn=kfn, label="direction")
        z = 0.9 * (rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1)))
        got = bg.curvature_variation(twisted_metric, kfield, z)

        t = 1e-4
        fp = curvature_matrix(PerturbedBundleMetric(twisted_metric, kfield, t), z)
        fm = curvature_matrix(PerturbedBundleMetric(twisted_metric, kfield, -t), z)
        fp2 = curvature_matrix(PerturbedBundleMetric(twisted_metric, kfield, t / 2), z)
        fm2 = curvature_matrix(PerturbedBundleMetric(twisted_metric, kfield, -t / 2), z)
        d1 = (fp - fm) / (2 * t)
        d2 = (fp2 - fm2) / t
        fd = (4 * d2 - d1) / 3
        assert np.max(np.abs(got - fd)) < 1e-6


class TestJointLinearization:
    @staticmethod
    def _phi_field(a, b):
        def fn(z):
            return (a[None, :, :] * eta_killing(z)[:, None, None]
                    + b[None, :, :] * profile_axis(z)[:, None, None])
        return MatrixField(1, 2, fn=fn, label="phi")

    @staticmethod
    def _setting():
        metric = ConstantBundleMetric(1, np.eye(2))
        model = TrivialBundleOverPm(1, 2, 3)
        rule = base_rule(model, n_radial=12)
        return metric, model, rule

    def test_zero_input_is_zero(self):
        metric, model, rule = self._setting()
        phi = MatrixField(1, 2, fn=lambda z: np.zeros((z.shape[0], 2, 2), dtype=complex))
        z = np.array([[0.2 + 0.3j], [0.9]], dtype=complex)
        out = bg.a11_apply(metric, FS1, model, phi, lambda q: np.zeros(q.shape[0]), z, rule=rule)
        assert np.max(np.abs(out)) < 1e-12

    def test_linear_in_both_arguments(self):
        metric, model, rule = self._setting()
        rng = np.random.default_rng(25)
        a1 = random_hermitian_pd(rng, 2) - 1.2 * np.eye(2)
        b1 = random_hermitian_pd(rng, 2) - 1.2 * np.eye(2)
        a2 = random_hermitian_pd(rng, 2) - 1.2 * np.eye(2)
        b2 = random_hermitian_pd(rng, 2) - 1.2 * np.eye(2)
        phi1, phi2 = self._phi_field(a1, b1), self._phi_field(a2, b2)
        eta1, eta2 = eta_quadratic, zeta_quadratic
        c1, c2 = 0.37, -1.21

        def phi_combo(z):
            return c1 * phi1.matrix(z) + c2 * phi2.matrix(z)

        def eta_combo(z):
            return c1 * eta1(z) + c2 * eta2(z)

        z = np.array([[0.15 - 0.25j], [0.8], [1.4j]], dtype=complex)
        out1 = bg.a11_apply(metric, FS1, model, phi1, eta1, z, rule=rule)
        out2 = bg.a11_apply(metric, FS1, model, phi2, eta2, z, rule=rule)
        combo = bg.a11_apply(
            metric, FS1, model, MatrixField(1, 2, fn=phi_combo), eta_combo, z, rule=rule)
        scale = max(np.max(np.abs(out1)), np.max(np.abs(out2)), 1.0)
        # the map is linear by construction; the floor here is fourth-order
        # stencil roundoff (inner FD noise amplified by h_outer^-2), around
        # 3e-9, far below the quadratic terms a difference quotient of the
        # full correction would leave (~1e-4 at step 1e-3)
        assert np.max(np.abs(combo - (c1 * out1 + c2 * out2))) < 1e-7 * scale

    def test_tracefree_direction_keeps_output_tracefree(self):
        metric, model, rule = self._setting()
        a = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]])  # traceless Hermitian
        b = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        phi = self._phi_field(a, b)
        z = np.array([[0.3], [0.5 + 0.4j]], dtype=complex)
        out = bg.a11_apply(metric, FS1, model, phi, lambda q: np.zeros(q.shape[0]), z, rule=rule)
        traces = np.einsum("naa->n", out)
        assert np.max(np.abs(traces)) < 1e-10

    def test_matches_difference_quotient_of_first_correction(self):
        metric, model, rule = self._setting()
        rng = np.random.default_rng(26)
        a = random_hermitian_pd(rng, 2) - 1.4 * np.eye(2)
        b = random_hermitian_pd(rng, 2) - 1.4 * np.eye(2)
        phi = self._phi_field(a, b)

        def eta(z):
            return 0.7 * eta_quadratic(z) - 0.4 * zeta_quadratic(z)

        z = np.array([[0.2 + 0.1j], [0.6 - 0.5j], [1.1]], dtype=complex)
        got = bg.a11_apply(metric, FS1, model, phi, eta, z, rule=rule)

        base = bg.a1_formula(metric, FS1, z)

        def a1_at(t):
            ht = PerturbedBundleMetric(metric, phi, t)  # identity metric: K = phi
            wt = PerturbedKahler(FS1, eta, t)
            return bg.a1_formula(ht, wt, z)

        t = 1e-3
        d1 = (a1_at(t) - base) / t
        d2 = (a1_at(t / 2) - base) / (t / 2)
        fd = 2.0 * d2 - d1
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(got - fd)) < 1e-3 * scale

    def test_precondition_violations_are_listed(self):
        metric, model, rule = self._setting()
        phi_bad = MatrixField(
            1, 2, fn=lambda z: np.broadcast_to(np.eye(2), (z.shape[0], 2, 2)).astype(complex).copy())
        eta_bad = lambda q: np.ones(q.shape[0])
        z = np.array([[0.3]], dtype=complex)
        with pytest.raises(ValueError) as err:
            bg.a11_apply(metric, FS1, model, phi_bad, eta_bad, z, rule=rule)
        msg = str(err.value)
        assert "tr(phi)" in msg and "eta" in msg

    def test_non_einstein_metric_rejected(self, twisted_metric):
        model = LineBundleSumOverP1((0, 1), 3)
        rule = base_rule(model, n_radial=12)
        phi = MatrixField(1, 2, fn=lambda z: np.zeros((z.shape[0], 2, 2), dtype=complex))
        z = np.array([[0.2]], dtype=complex)
        with pytest.raises(ValueError, match="Einstein"):
            bg.a11_apply(twisted_metric, FS1, model, phi, lambda q: np.zeros(q.shape[0]), z, rule=rule)

    def test_varying_scalar_curvature_rejected(self):
        metric, model, rule = self._setting()
        bumpy = PerturbedKahler(FS1, eta_quadratic, 0.15)
        phi = MatrixField(1, 2, fn=lambda z: np.zeros((z.shape[0], 2, 2), dtype=complex))
        z = np.array([[0.2]], dtype=complex)
        with pytest.raises(ValueError, match="scalar curvature"):
            bg.a11_apply(metric, bumpy, model, phi, lambda q: np.zeros(q.shape[0]), z, rule=rule)
