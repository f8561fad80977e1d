"""Quadrature rules on affine charts of C^d.

Oracle: the closed-form moment family

    I(p, q, D) = int_C z^p zbar^q (1 + |z|^2)^(-D) dA
               = delta_{pq} * pi * p! * (D-p-2)! / (D-1)!   (Lebesgue dA)

obtained by polar coordinates and the Beta integral
int_0^inf u^p (1+u)^(-D) du = p!(D-p-2)!/(D-1)!.  Frozen values below were
computed from that formula by hand.
"""

import math

import numpy as np
import pytest

from projbalance.quadrature import (
    chart_rule,
    integrate,
    product_rule,
    certify_moments,
)


def moment_oracle(p, q, D):
    if p != q:
        return 0.0
    return math.pi * math.factorial(p) * math.factorial(D - p - 2) / math.factorial(D - 1)


class TestOneComplexDim:
    def test_basic_volume_weight(self):
        # I(0,0,3) = pi * 0! * 1! / 2! = pi/2
        rule = chart_rule(1, n_radial=24)
        z = rule.points[:, 0]
        val = integrate(rule, (1.0 + np.abs(z) ** 2) ** -3.0)
        assert abs(val - math.pi / 2) < 1e-12

    def test_moment_family_exact(self):
        rule = chart_rule(1, n_radial=24)
        z = rule.points[:, 0]
        for (p, q, D) in [(0, 0, 2), (1, 1, 4), (2, 2, 6), (3, 3, 8), (0, 0, 9)]:
            f = z**p * np.conj(z) ** q * (1.0 + np.abs(z) ** 2) ** float(-D)
            val = integrate(rule, f)
            assert abs(val - moment_oracle(p, q, D)) < 1e-11, (p, q, D)

    def test_off_diagonal_moments_vanish(self):
        rule = chart_rule(1, n_radial=24)
        z = rule.points[:, 0]
        for (p, q, D) in [(1, 0, 4), (2, 1, 6), (0, 3, 7)]:
            f = z**p * np.conj(z) ** q * (1.0 + np.abs(z) ** 2) ** float(-D)
            assert abs(integrate(rule, f)) < 1e-12

    def test_fubini_study_volume_p1(self):
        # int_P1 omega_FS = 2 pi with omega = i ddbar log(1+|z|^2);
        # density against Lebesgue dA is 2 * (1+|z|^2)^-2.
        rule = chart_rule(1, n_radial=24)
        z = rule.points[:, 0]
        vol = integrate(rule, 2.0 * (1.0 + np.abs(z) ** 2) ** -2.0)
        assert abs(vol - 2 * math.pi) < 1e-10

    def test_doubling_stability(self):
        za = chart_rule(1, n_radial=20)
        zb = chart_rule(1, n_radial=40)
        for rule_pair in [(za, zb)]:
            vals = []
            for rule in rule_pair:
                z = rule.points[:, 0]
                f = (np.abs(z) ** 2) / (1.0 + np.abs(z) ** 2) ** 4
                vals.append(integrate(rule, f))
            assert abs(vals[0] - vals[1]) < 1e-9


class TestHigherDim:
    def test_c2_radial_weight(self):
        # int_{C^2} (1+|xi|^2)^(-4) dA^4 = pi^2/6 (computed by S^3 polar reduction)
        rule = chart_rule(2, n_radial=20)
        s = np.sum(np.abs(rule.points) ** 2, axis=1)
        val = integrate(rule, (1.0 + s) ** -4.0)
        assert abs(val - math.pi**2 / 6) < 1e-10

    def test_product_rule_matches_tensor_construction(self):
        a = chart_rule(1, n_radial=12)
        b = chart_rule(1, n_radial=10)
        ab = product_rule(a, b)
        assert ab.points.shape[1] == 2
        za = ab.points[:, 0]
        zb = ab.points[:, 1]
        f = (1.0 + np.abs(za) ** 2) ** -3.0 * (1.0 + np.abs(zb) ** 2) ** -3.0
        assert abs(integrate(ab, f) - (math.pi / 2) ** 2) < 1e-12

    def test_mixed_monomial_moment_c2(self):
        # int |xi_1|^2 (1+|xi|^2)^(-5) over C^2.  Per-coordinate polar plus the
        # orthant integral int int u1 (1+u1+u2)^(-5) du1 du2 = 1/24 gives
        # (2 pi)^2 / 4 * 1/24 = pi^2/24.
        rule = chart_rule(2, n_radial=24)
        u = np.abs(rule.points) ** 2
        f = u[:, 0] * (1.0 + u.sum(axis=1)) ** -5.0
        assert abs(integrate(rule, f) - math.pi**2 / 24) < 1e-10

    def test_zero_dim_rule_is_single_unit_node(self):
        rule = chart_rule(0, n_radial=8)
        assert rule.points.shape == (1, 0)
        assert integrate(rule, np.array([7.0])) == 7.0


class TestGuards:
    def test_weights_positive(self):
        rule = chart_rule(2, n_radial=8)
        assert np.all(rule.weights > 0)

    def test_nonfinite_integrand_raises(self):
        rule = chart_rule(1, n_radial=8)
        bad = np.zeros(rule.points.shape[0])
        bad[3] = np.inf
        with pytest.raises(ValueError, match="node"):
            integrate(rule, bad)

    def test_certify_moments(self):
        rule = chart_rule(1, n_radial=24)
        report = certify_moments(rule, degree=8, tol=1e-10)
        assert report["passed"]
        assert report["max_error"] < 1e-10
