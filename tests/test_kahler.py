"""Kahler structures, contraction, scalar curvature.

Two independent oracles live here:

1. a tiny exterior-algebra engine (dict-of-index-tuples with sign
   bookkeeping) that recomposes wedge products directly, against which the
   trace contraction Lambda is checked;
2. sympy symbolic differentiation of potentials for form matrices, Ricci and
   scalar curvature.
"""

import math
from itertools import permutations, product

import numpy as np
import pytest
import sympy as sp

from projbalance.kahler import (
    FubiniStudy,
    graded_exponents,
    hermitian_det,
    hermitian_norm,
    inverse_sqrt,
    jet_tables,
    lambda_contract,
    log_kernel_jet,
    mixed_volume_coefficients,
    smallest_eigenvalue,
)
from projbalance.metrics import (
    MatrixField,
    PerturbedBundleMetric,
    SplitBundleMetric,
    hermitian_einstein_residual,
    mean_curvature,
)
from projbalance.quadrature import chart_rule, integrate
from reference_structures import FlatChart, PotentialKahler


# ---------------------------------------------------------------- oracles

def _sort_sign(idx):
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


def wedge(f1, f2):
    """Wedge product of forms stored as {(holo_idx, anti_idx): coeff}."""
    out = {}
    for (i1, j1), c1 in f1.items():
        for (i2, j2), c2 in f2.items():
            holo, s1 = _sort_sign(i1 + i2)
            if s1 == 0:
                continue
            anti, s2 = _sort_sign(j1 + j2)
            if s2 == 0:
                continue
            swap = (-1) ** (len(j1) * len(i2))
            key = (holo, anti)
            out[key] = out.get(key, 0.0) + c1 * c2 * s1 * s2 * swap
    return {k: v for k, v in out.items() if abs(v) > 1e-300}


def one_one_form(mat):
    """alpha = i sum A_ab dz^a wedge dzbar^b as an exterior dict."""
    m = mat.shape[0]
    return {((a,), (b,)): 1j * mat[a, b] for a in range(m) for b in range(m)}


def top_coeff_per_euclidean(form, m):
    """Coefficient of the wedge relative to prod_a (i dz^a wedge dzbar^a)."""
    key = (tuple(range(m)), tuple(range(m)))
    c = form.get(key, 0.0)
    # prod_a (i dz^a dzbar^a) = i^m (-1)^(m(m-1)/2) dz^{0..} wedge dzbar^{0..}
    return c / (1j**m * (-1) ** (m * (m - 1) // 2))


def wedge_power(form, p):
    out = {((), ()): 1.0}
    for _ in range(p):
        out = wedge(out, form)
    return out


def random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- tests

class TestFormMatrices:
    def test_fs_origin_p1_is_one(self):
        ks = FubiniStudy(1)
        g = ks.matrix(np.zeros((1, 1), dtype=complex))
        assert abs(g[0, 0, 0] - 1.0) < 1e-14

    def test_flat_identity_everywhere(self):
        ks = FlatChart(2)
        pts = np.array([[0.3 + 0.1j, -1.2j], [2.0, 0.5 + 0.5j]])
        g = ks.matrix(pts)
        assert np.allclose(g, np.broadcast_to(np.eye(2), g.shape))

    def test_fs_p2_matches_sympy(self):
        z1, z2 = sp.symbols("z1 z2")
        z1b, z2b = sp.symbols("z1b z2b")
        phi = sp.log(1 + z1 * z1b + z2 * z2b)
        pt = np.array([0.37 - 0.81j, -0.44 + 0.23j])
        subs = {z1: pt[0], z1b: np.conj(pt[0]), z2: pt[1], z2b: np.conj(pt[1])}
        oracle = np.array(
            [
                [complex(sp.diff(phi, za, zbb).evalf(subs=subs)) for zbb in (z1b, z2b)]
                for za in (z1, z2)
            ]
        )
        ks = FubiniStudy(2)
        g = ks.matrix(pt[None, :])[0]
        assert np.max(np.abs(g - oracle)) < 1e-12

    def test_log_kernel_jet_matches_sympy_on_p2(self):
        # u(w) = (1, w1, w2) has the potential log(1 + |w|^2): its jet's
        # real derivatives of g_ab, orders 0 to 4, against sympy's
        x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2", real=True)
        xs, ys = (x1, x2), (y1, y2)
        phi = sp.log(1 + x1**2 + y1**2 + x2**2 + y2**2)

        def dz(f, a, sign):
            return (sp.diff(f, xs[a]) + sign * sp.I * sp.diff(f, ys[a])) / 2

        pt = np.array([0.37 - 0.81j, -0.44 + 0.23j])
        tables = jet_tables(2, 4)
        hol = [tuple(p) for p in tables.hol]
        coeffs = np.zeros((1, len(hol), 3), dtype=complex)
        coeffs[0, 0] = [1.0, *pt]
        coeffs[0, hol.index((1, 0)), 1] = coeffs[0, hol.index((0, 1)), 2] = 1
        derivs = log_kernel_jet(coeffs, 2, 4)
        rows = [tuple(r) for r in tables.mono[:len(tables.levels)]]
        subs = {x1: pt[0].real, y1: pt[0].imag, x2: pt[1].real,
                y2: pt[1].imag}
        for a, b in ((0, 0), (0, 1)):
            g = dz(dz(phi, b, 1), a, -1)
            for row in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0),
                        (2, 0, 0, 1), (1, 1, 1, 1), (0, 0, 0, 4)):
                want = complex(sp.diff(g, x1, row[0], x2, row[1], y1, row[2],
                                       y2, row[3]).evalf(subs=subs))
                got = derivs[rows.index(row), 0, a, b]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), row

    @pytest.mark.parametrize("count,top", [(0, 3), (1, 4), (2, 6), (4, 3),
                                           (6, 6)])
    def test_graded_exponents_filter_the_product(self, count, top):
        # the definition: every tuple of the product with |e| <= top,
        # stably sorted by degree
        grid = [e for e in product(range(top + 1), repeat=count)
                if sum(e) <= top]
        want = sorted(grid, key=sum)
        got = graded_exponents(count, top)
        assert got.shape == (len(want), count)
        assert [tuple(e) for e in got] == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jet_table_lookups_land_on_their_sums(self, d):
        tables = jet_tables(d, 4)
        mono, hol = tables.mono, tables.hol
        assert np.array_equal(mono, graded_exponents(2 * d, 6))
        zeros = np.zeros_like(hol[tables.kernel[0]])
        assert np.array_equal(np.concatenate(
            [hol[tables.kernel[0]], zeros], axis=1)
            + np.concatenate([zeros, hol[tables.kernel[1]]], axis=1), mono)
        for block, a, b, _, starts in tables.steps:
            target = np.repeat(np.arange(block.start, block.stop),
                               np.diff(np.append(starts, len(a))))
            assert np.array_equal(mono[a] + mono[b], mono[target])
        rows = mono[:len(tables.levels)]
        for i in range(d):
            for j in range(d):
                shifted = rows.copy()
                shifted[:, i] += 1
                shifted[:, d + j] += 1
                assert np.array_equal(mono[tables.g_index[i, j]], shifted)

    def test_positive_definite_at_random_nodes(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        for ks in [FubiniStudy(2), FlatChart(2)]:
            g = ks.matrix(pts)
            assert np.all(np.linalg.eigvalsh(g) > 0)
            assert np.max(np.abs(g - np.conj(np.transpose(g, (0, 2, 1))))) < 1e-14

    def test_generic_potential_route_matches_builtin(self):
        ks_fd = PotentialKahler(1, lambda z: np.log1p(np.abs(z[:, 0]) ** 2))
        ks = FubiniStudy(1)
        pts = np.array([[0.2 + 0.4j], [-1.1 + 0.3j], [0.05j]])
        assert np.max(np.abs(ks_fd.matrix(pts) - ks.matrix(pts))) < 1e-8


class TestScalarCurvature:
    def test_fs_p1_constant_two(self):
        ks = FubiniStudy(1)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))
        s = ks.scalar_curvature(pts)
        assert np.max(np.abs(s - 2.0)) < 1e-11

    def test_fs_pm_constant_m_times_m_plus_one(self):
        for m in (1, 2, 3):
            ks = FubiniStudy(m)
            rng = np.random.default_rng(m)
            pts = rng.standard_normal((12, m)) + 1j * rng.standard_normal((12, m))
            s = ks.scalar_curvature(pts)
            assert np.max(np.abs(s - m * (m + 1))) < 1e-10
            assert np.var(s) < 1e-10

    def test_flat_zero(self):
        ks = FlatChart(2)
        pts = np.array([[0.3, 1.0 + 1.0j]])
        assert abs(ks.scalar_curvature(pts)[0]) < 1e-12

    def test_sympy_ricci_oracle_on_perturbed_potential(self):
        # generic-potential route vs full symbolic computation
        z, zb = sp.symbols("z zb")
        phi_s = sp.log(1 + z * zb) + sp.Rational(1, 20) * (z * zb) / (1 + z * zb) ** 2
        g_s = sp.diff(phi_s, z, zb)
        ric_s = -sp.diff(sp.log(g_s), z, zb)
        s_s = sp.simplify(ric_s / g_s)
        pt = 0.31 - 0.47j
        oracle = complex(s_s.evalf(subs={z: pt, zb: np.conj(pt)})).real

        def phi(pts):
            u = np.abs(pts[:, 0]) ** 2
            return np.log1p(u) + 0.05 * u / (1 + u) ** 2

        ks = PotentialKahler(1, phi)
        val = ks.scalar_curvature(np.array([[pt]]))[0]
        assert abs(val - oracle) < 1e-6

    def test_degenerate_form_raises(self):
        ks = PotentialKahler(1, lambda z: np.zeros(z.shape[0]))
        with pytest.raises(ValueError, match="positive"):
            ks.scalar_curvature(np.array([[0.1 + 0.1j]]))


class TestContraction:
    def test_lambda_of_omega_is_m(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3):
            g = random_hermitian(rng, m) + 4 * np.eye(m)
            assert abs(lambda_contract(g[None], g[None])[0] - m) < 1e-12

    def test_recomposition_against_exterior_oracle(self):
        rng = np.random.default_rng(5)
        m = 2
        g = random_hermitian(rng, m) + 3 * np.eye(m)
        a = random_hermitian(rng, m)

        omega = one_one_form(g)
        alpha = one_one_form(a)

        # Lambda^1: alpha wedge omega^(m-1)/(m-1)! = Lambda(alpha) omega^m/m!
        lhs = top_coeff_per_euclidean(wedge(alpha, wedge_power(omega, m - 1)), m) / math.factorial(m - 1)
        top = top_coeff_per_euclidean(wedge_power(omega, m), m) / math.factorial(m)
        assert abs(lhs / top - lambda_contract(g[None], a[None])[0]) < 1e-12

    def test_endomorphism_valued_contraction(self):
        rng = np.random.default_rng(7)
        m, r = 2, 2
        g = random_hermitian(rng, m) + 3 * np.eye(m)
        aend = rng.standard_normal((m, m, r, r)) + 1j * rng.standard_normal((m, m, r, r))
        val = lambda_contract(g[None], aend[None])[0]
        ginv = np.linalg.inv(g)
        ref = sum(ginv[b, a] * aend[a, b] for a in range(m) for b in range(m))
        assert np.max(np.abs(val - ref)) < 1e-12

    def test_mixed_volume_coefficients_sum(self):
        rng = np.random.default_rng(8)
        n, m = 3, 2
        w = random_hermitian(rng, n) + 4 * np.eye(n)
        omega = np.zeros((n, n), dtype=complex)
        omega[:m, :m] = random_hermitian(rng, m) + 3 * np.eye(m)
        coeffs = mixed_volume_coefficients(w[None], omega[None], m)
        for t in (1.0, 2.5):
            direct = np.linalg.det(w + t * omega).real
            poly = sum(coeffs[j][0] * t**j for j in range(m + 1))
            assert abs(direct - poly) < 1e-10 * abs(direct)


class TestVolumes:
    def test_p1_volume_2pi(self):
        ks = FubiniStudy(1)
        rule = chart_rule(1, n_radial=24)
        vol = integrate(rule, ks.volume_density(rule.points))
        assert abs(vol - 2 * math.pi) < 1e-10

    def test_p2_volume(self):
        # int omega^2/2! = (2 pi)^2 / 2
        ks = FubiniStudy(2)
        rule = chart_rule(2, n_radial=20)
        vol = integrate(rule, ks.volume_density(rule.points))
        assert abs(vol - (2 * math.pi) ** 2 / 2) < 1e-8

    def test_p1_x_p1_volume(self):
        # product surface: per-factor decay, so the rule is a tensor product
        # of 1-d rules, not the joint simplex-radial rule
        from projbalance.quadrature import product_rule

        fs1 = FubiniStudy(1)
        rule = product_rule(chart_rule(1, n_radial=20), chart_rule(1, n_radial=20))
        pts = rule.points
        density = fs1.volume_density(pts[:, :1]) * fs1.volume_density(pts[:, 1:])
        vol = integrate(rule, density)
        assert abs(vol - (2 * math.pi) ** 2) < 1e-8

    def test_odd_integrand_vanishes(self):
        ks = FubiniStudy(1)
        rule = chart_rule(1, n_radial=24)
        z = rule.points[:, 0]
        val = integrate(rule, z * ks.volume_density(rule.points))
        assert abs(val) < 1e-12


class TestHermitianKernels:
    """The small-Hermitian kernels against LAPACK: closed forms at d = 2
    (and d = 1 for the determinant), LAPACK on either side."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hermitian_det_matches_lu(self, d):
        # scales spread over six decades
        rng = np.random.default_rng(110 + d)
        a = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
        stack = np.eye(d) + 0.5 * a @ np.conj(np.swapaxes(a, 1, 2)) / d
        stack *= 10.0 ** rng.uniform(-3.0, 3.0, size=(64, 1, 1))
        want = np.linalg.det(stack).real
        got = hermitian_det(stack)
        assert got.shape == (64,) and got.dtype == float
        assert np.max(np.abs(got - want) / want) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hermitian_norm_matches_the_svd(self, d):
        # indefinite Hermitian stacks shaped like r_bounded_check's
        # derivative table, scales spread over six decades
        rng = np.random.default_rng(120 + d)
        shape = (70, 16, d, d)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        stack *= 10.0 ** rng.uniform(-3.0, 3.0, size=(70, 16, 1, 1))
        want = np.linalg.svd(stack, compute_uv=False)[..., 0]
        got = hermitian_norm(stack)
        assert got.shape == (70, 16) and got.dtype == float
        assert np.max(np.abs(got - want) / want) < 1e-13

    def test_closed_forms_at_d2_match_lapack(self):
        rng = np.random.default_rng(97)
        a = (rng.standard_normal((50, 2, 2))
             + 1j * rng.standard_normal((50, 2, 2)))
        stack = a @ np.conj(np.swapaxes(a, 1, 2)) + 0.1 * np.eye(2)
        w, v = np.linalg.eigh(stack)
        smallest = smallest_eigenvalue(stack)
        assert np.max(np.abs(smallest - w[:, 0]) / w[:, 1]) < 1e-14
        want = (v / np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
        got = inverse_sqrt(stack)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_helpers_match_eigh(self, d):
        rng = np.random.default_rng(98 + d)
        a = (rng.standard_normal((40, d, d))
             + 1j * rng.standard_normal((40, d, d)))
        stack = a @ np.conj(np.swapaxes(a, 1, 2)) + 0.1 * np.eye(d)
        w, v = np.linalg.eigh(stack)
        got = smallest_eigenvalue(stack)
        assert np.max(np.abs(got - w[:, 0]) / w[:, -1]) < 1e-14
        want = (v / np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
        got = inverse_sqrt(stack)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_volume_coefficients_match_lu(self, d):
        # det(W + t Omega) at t = 0..d through LU and the Vandermonde
        # solve, against the same solve over the kernel's determinants
        rng = np.random.default_rng(130 + d)
        a = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
        b = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
        w = np.eye(d) + 0.5 * a @ np.conj(np.swapaxes(a, 1, 2))
        omega = 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
        tvals = np.arange(d + 1, dtype=float)
        dets = np.stack([np.linalg.det(w + t * omega).real for t in tvals])
        want = np.linalg.solve(np.vander(tvals, d + 1, increasing=True), dets)
        got = mixed_volume_coefficients(w, omega, d)
        assert got.shape == (d + 1, 60)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_hermitian_einstein_residual_matches_eigh(self, r):
        # a split metric plus a Hermitian term varying over the base, so
        # the metric frame is not diagonal; the residual measured through
        # H^(1/2) and H^(-1/2) from one eigh and the largest |eigvalsh|
        def kfn(z):
            q = 1.0 + np.abs(z[:, 0]) ** 2
            out = np.zeros((z.shape[0], r, r), dtype=complex)
            out[:, 0, 0] = 0.2 / q
            if r > 1:
                out[:, 0, 1] = 0.3 * z[:, 0] / q
            return out + np.conj(np.swapaxes(out, 1, 2))

        metric = PerturbedBundleMetric(SplitBundleMetric(1, range(r)),
                                       MatrixField(1, r, fn=kfn), 0.4)
        kahler = FubiniStudy(1)
        rule = chart_rule(1, n_radial=8)
        pts = rule.points
        mc = mean_curvature(metric, kahler, pts)
        dens = kahler.reduced_volume_density(pts)
        slope = (integrate(rule, np.einsum("nii->n", mc).real * dens)
                 / (r * integrate(rule, dens)))
        w, u = np.linalg.eigh(metric.matrix(pts))
        uh = np.conj(np.swapaxes(u, 1, 2))
        sym = ((u * np.sqrt(w)[:, None, :]) @ uh @ (mc - slope * np.eye(r))
               @ (u / np.sqrt(w)[:, None, :]) @ uh)
        sym = 0.5 * (sym + np.conj(np.swapaxes(sym, 1, 2)))
        want = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        got = hermitian_einstein_residual(metric, kahler, rule)
        assert want > 0.1
        assert abs(got - want) < 1e-13 * want
