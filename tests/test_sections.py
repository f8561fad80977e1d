"""Model spaces and holomorphic section bases.

Oracles: monomial dimension counts done by independent combinatorics
(itertools enumeration rather than binomial formulas), finite differences of
evaluations against the analytic jets, and numpy's complex power times a
binomial for the values, jets and Taylor coefficients that `SectionBasis`
gathers from one power table.
"""

import math
from itertools import product as iproduct

import numpy as np
import pytest

from projbalance.kahler import jet_tables
from projbalance.quadrature import chart_rule, integrate
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    ProjectiveSpaceBase,
    TrivialBundleOverPm,
    build_section_basis,
    riemann_roch_dimension,
    split_points,
)
from projbalance import bergman as bg
from projbalance.metrics import SplitBundleMetric


def count_monomials_upto(m, d):
    """Brute-force count of monomials z^beta with |beta| <= d in m variables."""
    if m == 0:
        return 1 if d >= 0 else 0
    return sum(1 for beta in iproduct(range(d + 1), repeat=m) if sum(beta) <= d)


class TestDimensions:
    def test_projective_point(self):
        for r in (1, 2, 3, 4):
            ms = ProjectivePoint(r)
            sb = build_section_basis(ms)
            assert sb.count == r == riemann_roch_dimension(ms)["N"]

    def test_line_bundle_sums(self):
        cases = [((0, 0), 3), ((0, 1), 2), ((1, 2, 4), 5), ((0,), 7)]
        for degrees, k in cases:
            ms = LineBundleSumOverP1(degrees, k)
            sb = build_section_basis(ms)
            expected = sum(a + k + 1 for a in degrees)
            assert sb.count == expected
            assert riemann_roch_dimension(ms)["N"] == expected

    def test_line_bundle_example_counts(self):
        assert riemann_roch_dimension(LineBundleSumOverP1((0, 1), 2))["N"] == 7
        # N = 2k + 3 family
        for k in range(1, 9):
            assert riemann_roch_dimension(LineBundleSumOverP1((0, 1), k))["N"] == 2 * k + 3

    def test_projective_space_base(self):
        for m, degrees, k in [(2, (0, 0), 3), (2, (0, 1), 2), (3, (1,), 2)]:
            ms = ProjectiveSpaceBase(m, degrees, k)
            sb = build_section_basis(ms)
            expected = sum(count_monomials_upto(m, a + k) for a in degrees)
            assert sb.count == expected == riemann_roch_dimension(ms)["N"]

    def test_trivial_bundle_kunneth(self):
        ms = TrivialBundleOverPm(1, 2, 3)
        assert build_section_basis(ms).count == 8

    def test_leading_coefficient(self):
        info = riemann_roch_dimension(LineBundleSumOverP1((0, 0), 4))
        assert info["n1"] == 2
        info = riemann_roch_dimension(TrivialBundleOverPm(2, 3, 2))
        assert abs(info["n1"] - 3 / 2) < 1e-12  # r / m!
        # exact second coefficient for split P^1 models: sum(a) + r
        info = riemann_roch_dimension(LineBundleSumOverP1((0, 1), 3))
        assert abs(info["n2"] - 3) < 1e-12

    def test_polarization_volume(self):
        # closed forms of c_1(L)^n / n!: sum_i (k + a_i) / r! over P^1 (the
        # Segre degree), k^m / (m! (r-1)!) on P^m x P^(r-1), 1 / (r-1)! on
        # a point base
        cases = [(ProjectivePoint(r), 1 / math.factorial(r - 1))
                 for r in (1, 2, 3, 4)]
        for k in range(1, 6):
            cases += [
                (TrivialBundleOverPm(1, 2, k), float(k)),
                (LineBundleSumOverP1((0, 1), k), k + 0.5),
                (LineBundleSumOverP1((1, 2, 4), k), (3 * k + 7) / 6),
                (TrivialBundleOverPm(2, 2, k), k ** 2 / 2),
                (TrivialBundleOverPm(2, 3, k), k ** 2 / 4),
            ]
        for ms, want in cases:
            got = riemann_roch_dimension(ms)["volume"]
            assert abs(got - want) <= 1e-14 * want, ms.label

    def test_k_sweep_consistency(self):
        for k in range(0, 21):
            ms = LineBundleSumOverP1((1, 2), k)
            assert build_section_basis(ms).count == riemann_roch_dimension(ms)["N"]

    def test_negative_twist_rejected(self):
        with pytest.raises(ValueError, match="section space"):
            LineBundleSumOverP1((0, -3), 1)


class TestSplitPoints:
    """One splitter holds the chart layout (z, xi) of the total space for
    the section tables and the induced forms alike."""

    MODEL = ProjectiveSpaceBase(2, (0, 1, 1), 1)  # chart C^2 x C^2

    def test_base_coordinates_come_first(self):
        pts = np.arange(12).reshape(3, 4) + 1j
        z, xi = split_points(self.MODEL, pts)
        assert z.dtype == xi.dtype == complex
        np.testing.assert_array_equal(z, pts[:, :2])
        np.testing.assert_array_equal(xi, pts[:, 2:])

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (3, 5)])
    def test_every_caller_rejects_a_wrong_layout(self, shape):
        bad = np.zeros(shape, dtype=complex)
        basis = build_section_basis(self.MODEL)
        metric = SplitBundleMetric(2, (0, 1, 1))
        for fn in (lambda p: split_points(self.MODEL, p),
                   basis.eval_embedding, basis.eval_embedding_jet,
                   lambda p: bg.hat_form_matrix(metric, self.MODEL, p)):
            with pytest.raises(ValueError,
                               match=r"must have shape \(n, 4\)"):
                fn(bad)


class TestEvaluation:
    def test_projective_point_standard_fiber(self):
        sb = build_section_basis(ProjectivePoint(2))
        # fiber point [1:0] is xi = 0 in the chart
        v = sb.eval_embedding(np.zeros((1, 1), dtype=complex))
        assert np.allclose(v, [[1.0, 0.0]])

    def test_no_common_zero_sampling(self):
        rng = np.random.default_rng(11)
        for ms in [
            LineBundleSumOverP1((0, 1), 2),
            TrivialBundleOverPm(1, 2, 3),
            ProjectivePoint(3),
        ]:
            sb = build_section_basis(ms)
            d = ms.m + ms.r - 1
            pts = rng.standard_normal((10**4, d)) + 1j * rng.standard_normal((10**4, d))
            v = sb.eval_embedding(pts)
            assert np.min(np.max(np.abs(v), axis=1)) > 1e-12

    def test_homogeneous_frame_rescaling(self):
        sb = build_section_basis(LineBundleSumOverP1((0, 1), 2))
        rng = np.random.default_rng(12)
        z = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        lam = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        v1 = sb.eval_embedding_homogeneous(z, lam)
        c = 0.3 - 1.7j
        v2 = sb.eval_embedding_homogeneous(z, c * lam)
        assert np.allclose(v2, c * v1)

    def test_components_match_embedding(self):
        sb = build_section_basis(LineBundleSumOverP1((0, 1), 2))
        rng = np.random.default_rng(13)
        z = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        xi = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        comps = sb.eval_components(z)  # (n, N, r)
        lam = np.concatenate([np.ones((6, 1)), xi], axis=1)
        v_from_comps = np.einsum("na,nia->ni", lam, comps)
        v = sb.eval_embedding(np.concatenate([z, xi], axis=1))
        assert np.allclose(v, v_from_comps)

    def test_gram_positive_definite(self):
        # independence certificate: Gram of values against any positive rule
        sb = build_section_basis(TrivialBundleOverPm(1, 2, 2))
        from projbalance.quadrature import product_rule

        rule = product_rule(chart_rule(1, n_radial=10), chart_rule(1, n_radial=10))
        v = sb.eval_embedding(rule.points)
        weight = (1.0 + np.sum(np.abs(rule.points) ** 2, axis=1)) ** -8.0
        gram = np.einsum("n,ni,nj->ij", rule.weights * weight, np.conj(v), v)
        assert np.min(np.linalg.eigvalsh(gram)) > 1e-10


class TestJets:
    def test_monomial_derivative(self):
        sb = build_section_basis(LineBundleSumOverP1((0,), 3))  # basis 1, z, z^2, z^3
        pts = np.array([[1.0 + 0j]])
        jet = sb.eval_embedding_jet(pts)
        # row 0 holds the values z^j, row 1 d/dz z^j, which is j at z=1
        assert np.allclose(jet[0, 0, :], 1.0)
        assert np.allclose(jet[1, 0, :], [0.0, 1.0, 2.0, 3.0])

    def test_constant_direction_zero_row(self):
        sb = build_section_basis(ProjectivePoint(3))
        pts = np.array([[0.3 + 0.2j, -0.5j]])
        jet = sb.eval_embedding_jet(pts)
        # first section is the constant functional lambda_1
        assert np.allclose(jet[1:, 0, 0], 0.0)

    def test_jet_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        sb = build_section_basis(TrivialBundleOverPm(1, 3, 2))
        d = sb.model.m + sb.model.r - 1
        pts = rng.standard_normal((100, d)) + 1j * rng.standard_normal((100, d))
        jet = sb.eval_embedding_jet(pts)
        h = 1e-6
        for axis in range(d):
            e = np.zeros(d, dtype=complex)
            e[axis] = h
            fd = (sb.eval_embedding(pts + e) - sb.eval_embedding(pts - e)) / (2 * h)
            assert np.max(np.abs(fd - jet[1 + axis])) < 1e-7


def complex_power_oracle(basis, pts):
    """Values and direction-major jets of a basis from numpy's complex
    power z ** beta, one monomial at a time and one lowered exponent per
    base direction."""
    model = basis.model
    z, xi = split_points(model, pts)
    lam = np.concatenate([np.ones((len(pts), 1)), xi], axis=1)[:, basis.summand]
    expo = basis.exponents

    def monomials(exponents):
        return np.prod(z[:, None, :] ** exponents[None, :, :], axis=2)

    mono = monomials(expo)
    jet = []
    for a in range(model.m):
        lowered = expo.copy()
        lowered[:, a] = np.maximum(expo[:, a] - 1, 0)
        jet.append(lam * expo[:, a] * monomials(lowered))
    for c in range(model.r - 1):
        jet.append(np.where(basis.summand == c + 1, mono, 0.0))
    jet = np.stack(jet) if jet else np.zeros((0,) + mono.shape, complex)
    return lam * mono, jet, mono


def taylor_oracle(basis, pts, orders):
    """Taylor coefficients (n, J, N) of the sections lam_alpha z^beta,
    monomials w^e in the chart coordinates w = (z, xi), from numpy's
    complex power: prod_a C(e_a, J_a) w_a^(e_a - J_a), one coordinate at
    a time, 0 where J_a > e_a."""
    fiber = (basis.summand[:, None] == np.arange(1, basis.model.r)).astype(int)
    expo = np.concatenate([basis.exponents, fiber], axis=1)
    out = np.ones((len(pts), len(orders), basis.count), dtype=complex)
    for a in range(pts.shape[1]):
        e, j = expo[None, :, a], orders[:, None, a]
        binom = np.array([[math.comb(p, q) for q in range(7)]
                          for p in range(13)], dtype=float)[e, j]
        out *= binom * pts[:, None, None, a] ** np.maximum(e - j, 0)
    return out


def assert_relative(got, want, tol):
    assert got.shape == want.shape
    assert np.array_equal(got == 0, want == 0)
    nonzero = want != 0
    rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
    assert rel.max(initial=0.0) <= tol


class TestPowerTable:
    """`SectionBasis` gathers every value, jet and Taylor coefficient from
    one table of powers built by repeated products; each must agree with
    the complex power times its binomial to roundoff at every base
    dimension, up to degree 12, with |z| over six decades."""

    MODELS = {
        0: ProjectivePoint(3),
        1: LineBundleSumOverP1((0, 3), 9),
        2: ProjectiveSpaceBase(2, (0, 2), 10),
        3: ProjectiveSpaceBase(3, (0, 1), 11),
    }

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_the_complex_power(self, m):
        model = self.MODELS[m]
        basis = build_section_basis(model)
        assert int(basis.exponents.max(initial=0)) == (0 if m == 0 else 12)
        rng = np.random.default_rng(190 + m)
        moduli = 10.0 ** rng.uniform(-3.0, 3.0, size=(40, model.n))
        pts = moduli * np.exp(2j * math.pi * rng.random((40, model.n)))
        values, jet, mono = complex_power_oracle(basis, pts)
        assert_relative(basis.eval_embedding(pts), values, 1e-13)
        assert_relative(basis.eval_embedding_jet(pts),
                        np.concatenate([values[None], jet]), 1e-13)
        z = pts[:, :m]
        comps = basis.eval_components(z)
        assert_relative(comps[:, np.arange(basis.count), basis.summand],
                        mono, 1e-13)
        lam = rng.standard_normal((40, model.r)) + 0j
        assert_relative(basis.eval_embedding_homogeneous(z, lam),
                        lam[:, basis.summand] * mono, 1e-13)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_taylor_matches_binomial_times_the_complex_power(self, m):
        # every order row that r_bounded_check reads, to degree 6, on ten
        # points
        model = self.MODELS[m]
        basis = build_section_basis(model)
        rng = np.random.default_rng(290 + m)
        moduli = 10.0 ** rng.uniform(-3.0, 3.0, size=(10, model.n))
        pts = moduli * np.exp(2j * math.pi * rng.random((10, model.n)))
        orders = jet_tables(model.n, 4).hol
        assert orders.max() == 6
        assert_relative(basis.eval_taylor(pts, orders),
                        taylor_oracle(basis, pts, orders), 1e-13)
