"""Bundle metrics, curvature, the induced hyperplane weight, Gram utilities.

Oracles: quadrature degree integrals (Chern-Weil style), generic finite
differences cross-checking the hand-coded derivative tables, and a scalar
log-route for line-bundle curvature.
"""

import math

import numpy as np
import pytest

from projbalance.errors import NumericalGuardError
from projbalance.kahler import FlatChart, FubiniStudy, complex_hessian
from projbalance.metrics import (
    CallableBundleMetric,
    ConstantBundleMetric,
    MatrixField,
    PerturbedBundleMetric,
    SplitBundleMetric,
    curvature_matrix,
    hat_weight,
    hat_weight_homogeneous,
    hermitian_einstein_residual,
    make_gram,
    mean_curvature,
    whitening_transform,
)
from projbalance.quadrature import chart_rule, integrate
from projbalance.sections import LineBundleSumOverP1, ProjectivePoint


class PolyField(MatrixField):
    """K(z) = C z + C* zbar + D z zbar on a one-dimensional base chart,
    with hand-coded derivatives (exact oracle for the FD defaults)."""

    def __init__(self, C, D):
        super().__init__(m=1, r=C.shape[0], label="poly")
        self.C = np.asarray(C, dtype=complex)
        self.D = np.asarray(D, dtype=complex)

    def matrix(self, z):
        z0 = np.asarray(z, dtype=complex)[:, 0]
        return (self.C[None] * z0[:, None, None]
                + self.C.conj().T[None] * np.conj(z0)[:, None, None]
                + self.D[None] * (z0 * np.conj(z0))[:, None, None].real)

    def d_matrix(self, z):
        z0 = np.asarray(z, dtype=complex)[:, 0]
        d = self.C[None] + self.D[None] * np.conj(z0)[:, None, None]
        return d[:, None, :, :]

    def dd_matrix(self, z):
        n = np.asarray(z).shape[0]
        return np.broadcast_to(self.D, (n, 1, 1, *self.D.shape)).copy()


def _hermitian(rng, r, scale=1.0):
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return scale * 0.5 * (a + a.conj().T)


class TestGramUtilities:
    def test_whitener_normalizes(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = a @ a.conj().T + np.eye(6)
        t = whitening_transform(g)
        assert np.max(np.abs(t.conj().T @ g @ t - np.eye(6))) < 1e-12

    def test_condition_guard(self):
        g = np.diag([1.0, 1e-13]).astype(complex)
        with pytest.raises(NumericalGuardError, match="quadrature"):
            whitening_transform(g)

    def test_non_positive_guard(self):
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NumericalGuardError, match="positive"):
            whitening_transform(g)

    def test_make_gram_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            make_gram(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    def test_gram_certificate(self):
        g = make_gram(np.diag([2.0, 3.0]).astype(complex))
        assert abs(g.smallest_eigenvalue() - 2.0) < 1e-14
        assert abs(g.condition() - 1.5) < 1e-14


class TestSplitMetric:
    def test_values(self):
        h = SplitBundleMetric(1, (0, 2))
        z = np.array([[1.0 + 0j]])
        mat = h.matrix(z)
        assert np.allclose(mat[0], np.diag([1.0, 0.25]))

    def test_derivatives_match_generic_fd(self):
        rng = np.random.default_rng(22)
        for m, degrees in [(1, (0, 1, 3)), (2, (1, 2))]:
            exact = SplitBundleMetric(m, degrees)
            fd = CallableBundleMetric(m, len(degrees), exact.matrix)
            z = 0.7 * (rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m)))
            assert np.max(np.abs(exact.d_matrix(z) - fd.d_matrix(z))) < 1e-7
            assert np.max(np.abs(exact.dd_matrix(z) - fd.dd_matrix(z))) < 1e-7

    def test_flat_curvature_zero(self):
        h = ConstantBundleMetric(1, np.eye(2, dtype=complex))
        z = np.array([[0.3 + 0.1j], [1.0 - 2.0j]])
        assert np.max(np.abs(curvature_matrix(h, z))) < 1e-14

    def test_line_bundle_curvature_equals_log_route(self):
        # for a single summand, the curvature form is -ddbar log H entrywise
        h = SplitBundleMetric(1, (2,))
        rng = np.random.default_rng(23)
        z = rng.standard_normal((15, 1)) + 1j * rng.standard_normal((15, 1))
        f = curvature_matrix(h, z)[:, :, :, 0, 0]

        def log_h(q):
            return -2.0 * np.log1p(np.sum(np.abs(q) ** 2, axis=1))

        oracle = -complex_hessian(log_h, z)
        assert np.max(np.abs(f - oracle)) < 1e-8

    def test_degree_integral_p1(self):
        # quadrature oracle: mean curvature against the reduced FS volume
        # integrates to a * m / m! (slope normalization)
        rule = chart_rule(1, n_radial=24)
        fs = FubiniStudy(1)
        dens = fs.reduced_volume_density(rule.points)
        for a in (0, 1, 2, 3):
            h = SplitBundleMetric(1, (a,))
            mc = mean_curvature(h, fs, rule.points)[:, 0, 0].real
            val = integrate(rule, mc * dens)
            assert abs(val - a) < 1e-8

    def test_degree_integral_p2(self):
        rule = chart_rule(2, n_radial=16)
        fs = FubiniStudy(2)
        dens = fs.reduced_volume_density(rule.points)
        h = SplitBundleMetric(2, (2,))
        mc = mean_curvature(h, fs, rule.points)[:, 0, 0].real
        expected = 2 * 2 / math.factorial(2)
        assert abs(integrate(rule, mc * dens) - expected) < 1e-8

    def test_split_mean_curvature_diagonal_constant(self):
        fs = FubiniStudy(1)
        h = SplitBundleMetric(1, (0, 1))
        rng = np.random.default_rng(24)
        z = rng.standard_normal((25, 1)) + 1j * rng.standard_normal((25, 1))
        mc = mean_curvature(h, fs, z)
        assert np.max(np.abs(mc - np.diag([0.0, 1.0])[None])) < 1e-10


class TestPerturbedMetric:
    def _field(self):
        C = np.array([[0.10, 0.20 - 0.10j], [0.05j, -0.10]], dtype=complex)
        D = np.array([[0.20, 0.10j], [-0.10j, 0.30]], dtype=complex)
        return PolyField(C, D)

    def test_poly_field_fd_defaults_agree(self):
        field = self._field()
        generic = MatrixField(1, 2, fn=field.matrix)
        rng = np.random.default_rng(25)
        z = rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1))
        assert np.max(np.abs(field.d_matrix(z) - generic.d_matrix(z))) < 1e-7
        assert np.max(np.abs(field.dd_matrix(z) - generic.dd_matrix(z))) < 1e-7

    def test_sum_rule_matches_composite_fd(self):
        base = SplitBundleMetric(1, (0, 1))
        field = self._field()
        pert = PerturbedBundleMetric(base, field, 0.4)
        fd = CallableBundleMetric(1, 2, pert.matrix)
        rng = np.random.default_rng(26)
        z = 0.8 * (rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1)))
        assert np.max(np.abs(pert.matrix(z) - base.matrix(z) - 0.4 * field.matrix(z))) < 1e-14
        assert np.max(np.abs(pert.d_matrix(z) - fd.d_matrix(z))) < 1e-7
        assert np.max(np.abs(pert.dd_matrix(z) - fd.dd_matrix(z))) < 1e-7

    def test_zero_perturbation_reduces_to_base(self):
        base = SplitBundleMetric(1, (0, 1))
        pert = PerturbedBundleMetric(base, self._field(), 0.0)
        z = np.array([[0.5 + 0.25j]])
        assert np.allclose(curvature_matrix(pert, z), curvature_matrix(base, z))

    def test_mean_curvature_self_adjoint_wrt_metric(self):
        base = SplitBundleMetric(1, (0, 1))
        pert = PerturbedBundleMetric(base, self._field(), 0.4)
        fs = FubiniStudy(1)
        rng = np.random.default_rng(27)
        z = 0.8 * (rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1)))
        hmat = pert.matrix(z)
        assert np.min(np.linalg.eigvalsh(hmat)) > 0  # perturbation stays a metric
        mc = mean_curvature(pert, fs, z)
        pairing = np.einsum("nij,njk->nik", hmat, mc)
        defect = np.max(np.abs(pairing - np.conj(np.swapaxes(pairing, 1, 2))))
        assert defect < 1e-9


class TestHermitianEinsteinResidual:
    def test_flat_zero(self):
        h = ConstantBundleMetric(1, np.eye(2, dtype=complex))
        res = hermitian_einstein_residual(h, FlatChart(1), chart_rule(1, n_radial=10))
        assert res < 1e-12

    def test_equal_slopes_zero(self):
        h = SplitBundleMetric(1, (1, 1))
        res = hermitian_einstein_residual(h, FubiniStudy(1), chart_rule(1, n_radial=16))
        assert res < 1e-9

    def test_unequal_slopes_positive(self):
        h = SplitBundleMetric(1, (0, 1))
        res = hermitian_einstein_residual(h, FubiniStudy(1), chart_rule(1, n_radial=16))
        # mean curvature diag(0, 1), average slope 1/2, defect operator norm 1/2
        assert abs(res - 0.5) < 1e-9


class TestHatWeight:
    def test_rank_one_reduces_to_metric(self):
        model = LineBundleSumOverP1((2,), 0)
        h = SplitBundleMetric(1, (2,))
        rng = np.random.default_rng(28)
        pts = rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1))
        w = hat_weight(h, pts, model)
        expected = (1.0 + np.abs(pts[:, 0]) ** 2) ** -2.0
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_identity_over_point(self):
        model = ProjectivePoint(2)
        h = ConstantBundleMetric(0, np.eye(2, dtype=complex))
        w = hat_weight(h, np.zeros((1, 1), dtype=complex), model)
        assert abs(w[0] - 1.0) < 1e-14

    def test_monotone_in_metric(self):
        rng = np.random.default_rng(29)
        r = 3
        a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        h1 = a @ a.conj().T + 0.2 * np.eye(r)
        b = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        h2 = h1 + b @ b.conj().T
        model = ProjectivePoint(r)
        pts = rng.standard_normal((30, r - 1)) + 1j * rng.standard_normal((30, r - 1))
        w1 = hat_weight(ConstantBundleMetric(0, h1), pts, model)
        w2 = hat_weight(ConstantBundleMetric(0, h2), pts, model)
        assert np.all(w1 <= w2 + 1e-12)

    def test_zero_covector_rejected(self):
        model = ProjectivePoint(2)
        h = ConstantBundleMetric(0, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="covector"):
            hat_weight_homogeneous(
                h, np.zeros((1, 0), dtype=complex), np.zeros((1, 2), dtype=complex)
            )
