"""Model spaces and holomorphic section bases.

Oracles: monomial dimension counts done by independent combinatorics
(itertools enumeration rather than binomial formulas), finite differences of
evaluations against the analytic jets.
"""

from itertools import product as iproduct

import numpy as np
import pytest

from projbalance.quadrature import chart_rule, integrate
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    ProjectiveSpaceBase,
    TrivialBundleOverPm,
    build_section_basis,
    riemann_roch_dimension,
)


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

    def test_k_sweep_consistency(self):
        for k in range(0, 21):
            ms = LineBundleSumOverP1((1, 2), k)
            assert build_section_basis(ms).count == riemann_roch_dimension(ms)["N"]

    def test_negative_twist_rejected(self):
        with pytest.raises(ValueError, match="section space"):
            LineBundleSumOverP1((0, -3), 1)


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
        # d/dz z^j at z=1 is j
        assert np.allclose(jet[0, :, 0], [0.0, 1.0, 2.0, 3.0])

    def test_constant_direction_zero_row(self):
        sb = build_section_basis(ProjectivePoint(3))
        pts = np.array([[0.3 + 0.2j, -0.5j]])
        jet = sb.eval_embedding_jet(pts)
        # first section is the constant functional lambda_1
        assert np.allclose(jet[0, 0, :], 0.0)

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
            assert np.max(np.abs(fd - jet[:, :, axis])) < 1e-7
