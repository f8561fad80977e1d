"""Acceptance matrix: the headline numerical claims, one test per claim.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every test states its tolerance and wall-clock budget and
asserts both; seeds are fixed so the matrix is reproducible bit for bit.

Two criteria pin the gap between the two first-correction candidates.
On the flat rank-2 model over the line the level endomorphism equals
(k + 1) times the identity exactly, so `test_c05` asserts that the fitted
first correction is (S/2) I, that the remainder after the fit is roundoff,
and that the closed-form candidate `a1_formula` evaluates to 1.5 times the
identity, one third away from the fitted value.  The companion test right
after it runs the same pipeline on the split model, where the expansion
genuinely has higher terms, and matches the level-average candidate.  The
unit-level counterparts are `TestFirstCorrection::test_trivial_over_p1`
and `TestExpansionFit::test_trivial_family_fits_exactly` in
`test_bergman.py`.
"""

import math
import time
from collections import namedtuple
from dataclasses import replace

import numpy as np

from projbalance import balancing as bal
from projbalance import bergman as bg
from projbalance import suites
from projbalance.config import ExperimentConfig
from projbalance.kahler import FubiniStudy, PerturbedKahler
from projbalance.metrics import (
    ConstantBundleMetric,
    MatrixField,
    PerturbedBundleMetric,
    SplitBundleMetric,
    mean_curvature,
)
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    TrivialBundleOverPm,
    base_rule,
    fiber_rule,
    riemann_roch_dimension,
)

FS0 = FubiniStudy(0)
FS1 = FubiniStudy(1)

# Mass and trace bookkeeping collected by the experiments below and judged
# in one sweep by the final criterion.
MASSES = []
TRACES = []

Summary = namedtuple("Summary", "norm_op d volume count")


def test_c01_fiber_volume_constants():
    """Total fiber mass against (2 pi)^(r-1) / r! for ranks 1..5,
    tolerance 1e-8, budget 1 second."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in range(1, 6):
        got = bg.c_r_constant(r)
        want = (2.0 * math.pi) ** (r - 1) / math.factorial(r)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"fiber volume constant off by {worst:.3e}"
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f} s"


def test_c02_metric_round_trip():
    """Fiber average of the induced pairing returns the bundle metric it
    came from, entrywise 1e-9, 10 random Hermitian inputs at ranks 2 and
    3, budget 5 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    z = np.zeros((1, 0), dtype=complex)
    worst = 0.0
    for r in (2, 3):
        model = ProjectivePoint(r)
        rule = fiber_rule(model, n_radial=18)
        for _ in range(10):
            a = 0.5 * (rng.standard_normal((r, r))
                       + 1j * rng.standard_normal((r, r)))
            h = a @ a.conj().T + np.eye(r)
            metric = ConstantBundleMetric(0, h)
            out = bg.fiber_push_forward(metric, FS0, model, z, rule=rule)
            worst = max(worst, float(np.max(np.abs(out.g_tilde[0] - h))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"round-trip defect {worst:.3e}"
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


def test_c03_weighted_fiber_averages():
    """Top fiber weight gives the identity to 1e-9; the subleading weight
    gives (tr(M) I + M) / (r + 1) with M the mean curvature, to 1e-7, on
    two split models over the line.  Budget 30 seconds."""
    t0 = time.perf_counter()

    model = LineBundleSumOverP1((0, 1), 4)
    metric = SplitBundleMetric(1, (0, 1))
    z = np.array([[0.0], [0.4 + 0.3j], [-1.1j]], dtype=complex)
    out = bg.fiber_push_forward(metric, FS1, model, z, weight=model.m,
                                rule=fiber_rule(model, 16))
    top_err = float(np.max(np.abs(out.psi - np.eye(2))))
    assert top_err <= 1e-9, f"top weight defect {top_err:.3e}"

    worst = 0.0
    for degrees in ((2, 1), (0, 1)):
        model = LineBundleSumOverP1(degrees, 3)
        metric = SplitBundleMetric(1, degrees)
        z = np.array([[0.3 + 0.1j], [-0.8j], [1.4]], dtype=complex)
        out = bg.fiber_push_forward(metric, FS1, model, z,
                                    weight=model.m - 1,
                                    rule=fiber_rule(model, 16))
        mc = mean_curvature(metric, FS1, z)
        tr = np.einsum("naa->n", mc)[:, None, None]
        want = (tr * np.eye(2) + mc) / (model.r + 1.0)
        worst = max(worst, float(np.max(np.abs(out.psi - want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7, f"subleading weight defect {worst:.3e}"
    assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.2f} s"


def test_c04_density_routes_cross():
    """The squared-norm density and the endomorphism-trace density agree
    to relative 1e-5 at 200 random points per level, on the rank-2 split
    model with twists (0, 1) at levels 3..6.  Budget 5 minutes."""
    t0 = time.perf_counter()
    metric = SplitBundleMetric(1, (0, 1))
    worst = 0.0
    model = LineBundleSumOverP1((0, 1), 3)
    rule = base_rule(model, n_radial=16)
    table = bg.push_forward_table(metric, FS1, model, rule.points,
                                  rule=fiber_rule(model, n_radial=16))
    for k in range(3, 7):
        model = LineBundleSumOverP1((0, 1), k)
        direct = bg.rho_direct(model, bg.direct_table(
            metric, FS1, model,
            bg.adapted_total_rule(metric, model, n_radial=16)))
        level = bg.bergman_endomorphism(metric, FS1, model, rule, table)
        rng = np.random.default_rng(1009 * k)
        pts = 0.9 * (rng.standard_normal((200, model.n))
                     + 1j * rng.standard_normal((200, model.n)))
        da = direct.density(pts)
        db = bg.rho_via_trace(level, pts)
        worst = max(worst, float(np.max(np.abs(da - db) / np.abs(db))))
        MASSES.append((f"split(0,1) k={k}", direct.total_mass(),
                       float(riemann_roch_dimension(model)["N"])))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, f"density routes disagree by {worst:.3e}"
    assert elapsed < 300.0, f"budget 5 min exceeded: {elapsed:.1f} s"


def _level_sweep(metric, model, ks, n_radial):
    """Level endomorphisms over `ks` from one push-forward table on the
    base rule nodes, as the CLI sweeps build them."""
    rule = base_rule(model, n_radial=n_radial)
    table = bg.push_forward_table(metric, FS1, model, rule.points,
                                  rule=fiber_rule(model, n_radial=n_radial))
    return [bg.bergman_endomorphism(metric, FS1, replace(model, k=k), rule,
                                    table)
            for k in ks]


def _level_sweep_residuals(sweep, pts, a1):
    """Sup norm of B_k / k^m - I - A1 / k per level, the remainder after
    the fitted first correction."""
    model = sweep[0].model
    eye = np.eye(model.r)
    res = []
    for b in sweep:
        vals = b.endomorphism(pts) / float(b.k) ** model.m
        res.append(float(np.max(np.abs(vals - eye - a1 / float(b.k)))))
    return np.array(res)


def test_c05_flat_model_first_correction_closed_form():
    """Flat rank-2 model over the line, levels 4..10.  The induced form has
    no base block there, so the level metric is H itself and the level
    endomorphism is exactly (k + 1) I: the two-term expansion is exact.
    Three facts, each against a value that does not come from the fit:
    (a) the fitted first correction is (S/2) I, with S the scalar
    curvature of the base, to 1e-8; (b) the remainder after the fit is at
    most 1e-10 at every level; (c) the closed-form candidate `a1_formula`
    is ((r+1)/2r) S I = 1.5 I to 1e-10, a relative gap of 1/3 to the
    fitted correction, to 1e-8.  Budget 10 minutes."""
    t0 = time.perf_counter()
    model = TrivialBundleOverPm(1, 2, 4)
    metric = ConstantBundleMetric(1, np.eye(2))
    ks = tuple(range(4, 11))
    sweep = _level_sweep(metric, model, ks, n_radial=16)
    pts = np.array([[0.0], [0.3 + 0.2j], [-0.7j], [1.1], [0.5 - 0.4j],
                    [-0.2 + 0.9j]], dtype=complex)
    fit = bg.expansion_fit(ks, [b.endomorphism(pts) for b in sweep], model.m,
                           orders=2)
    a1 = fit.coefficients[0]
    eye = np.eye(model.r)
    half_s = 0.5 * FS1.scalar_curvature(pts)[:, None, None] * eye
    fit_err = float(np.max(np.abs(a1 - half_s)))
    residuals = _level_sweep_residuals(sweep, pts, a1)
    closed = bg.a1_formula(metric, FS1, pts)
    closed_err = float(np.max(np.abs(closed - 1.5 * eye)))
    rel = float(np.max(np.abs(a1 - closed)) / np.max(np.abs(closed)))
    elapsed = time.perf_counter() - t0
    assert fit_err <= 1e-8, f"fitted correction is not (S/2) I: {fit_err:.3e}"
    assert residuals.max() <= 1e-10, (
        f"remainder after the exact two-term fit: {residuals}")
    assert closed_err <= 1e-10, f"closed form is not 1.5 I: {closed_err:.3e}"
    assert abs(rel - 1.0 / 3.0) <= 1e-8, (
        f"fitted-vs-closed-form gap {rel:.10f}, expected 1/3")
    assert elapsed < 600.0, f"budget 10 min exceeded: {elapsed:.1f} s"


def test_c05_companion_split_model_first_correction():
    """Same pipeline on the split model with twists (0, 1), levels 4..10,
    where the expansion genuinely continues past the first correction:
    the fitted first correction matches the level-average candidate to 2%
    and the remainder decays with slope -2 +- 0.3."""
    t0 = time.perf_counter()
    model = LineBundleSumOverP1((0, 1), 4)
    metric = SplitBundleMetric(1, (0, 1))
    ks = tuple(range(4, 11))
    sweep = _level_sweep(metric, model, ks, n_radial=20)
    pts = np.array([[0.0], [0.3 + 0.2j], [-0.7j], [1.1], [0.5 - 0.4j],
                    [-0.2 + 0.9j]], dtype=complex)
    fit = bg.expansion_fit(ks, [b.endomorphism(pts) for b in sweep], model.m,
                           orders=3)
    a1 = fit.coefficients[0]
    alternative = bg.a1_alternative(metric, FS1, model, pts,
                                    rule=fiber_rule(model, 20))
    rel = float(np.max(np.abs(a1 - alternative))
                / np.max(np.abs(alternative)))
    residuals = _level_sweep_residuals(sweep, pts, a1)
    slope = float(np.polyfit(np.log(ks), np.log(residuals), 1)[0])
    elapsed = time.perf_counter() - t0
    assert rel <= 0.02, f"fitted first correction off by {rel:.2%}"
    assert abs(slope + 2.0) <= 0.3, f"remainder slope {slope:.2f}"
    assert elapsed < 600.0, f"budget 10 min exceeded: {elapsed:.1f} s"


def _eta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).real / q ** 2


def _zeta_quadratic(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (z[:, 0] ** 2).imag / q ** 2


def _eta_killing(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return z[:, 0].real / q


def _profile_axis(z):
    q = 1.0 + np.abs(z[:, 0]) ** 2
    return (1.0 - np.abs(z[:, 0]) ** 2) / q


def test_c06_joint_linearization_vs_differences():
    """The joint first-order response of the first-correction formula
    matches a Richardson difference quotient to relative 1e-3 on 5 random
    direction pairs.  Budget 5 minutes."""
    t0 = time.perf_counter()
    metric = ConstantBundleMetric(1, np.eye(2))
    model = TrivialBundleOverPm(1, 2, 3)
    rule = base_rule(model, n_radial=12)
    rng = np.random.default_rng(0)
    z = np.array([[0.2 + 0.1j], [0.6 - 0.5j], [1.1]], dtype=complex)
    base = bg.a1_formula(metric, FS1, z)
    worst = 0.0
    for _ in range(5):
        aa = 0.5 * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
        a = aa @ aa.conj().T - 1.4 * np.eye(2)
        bb = 0.5 * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
        b = bb @ bb.conj().T - 1.4 * np.eye(2)

        def phi_fn(q, a=a, b=b):
            return (a[None, :, :] * _eta_killing(q)[:, None, None]
                    + b[None, :, :] * _profile_axis(q)[:, None, None])

        c1, c2 = rng.uniform(-1.0, 1.0, size=2)

        def eta(q, c1=c1, c2=c2):
            return c1 * _eta_quadratic(q) + c2 * _zeta_quadratic(q)

        phi = MatrixField(1, 2, fn=phi_fn, label="phi")
        got = bg.a11_apply(metric, FS1, model, phi, eta, z, rule=rule)

        def a1_at(t, phi=phi, eta=eta):
            ht = PerturbedBundleMetric(metric, phi, t)
            wt = PerturbedKahler(FS1, eta, t)
            return bg.a1_formula(ht, wt, z)

        t = 1e-3
        d1 = (a1_at(t) - base) / t
        d2 = (a1_at(t / 2) - base) / (t / 2)
        fd = 2.0 * d2 - d1
        worst = max(worst, float(np.max(np.abs(got - fd))
                                 / np.max(np.abs(fd))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3, f"linearization off by {worst:.3e}"
    assert elapsed < 300.0, f"budget 5 min exceeded: {elapsed:.1f} s"


def test_c07_balance_iteration_converges():
    """The fixed-point iteration reaches moment op norm below 1e-8 with
    node variance of the density below 1e-7, on the projective plane from
    a random start and on the product of two lines from the identity
    start.  Budget 2 minutes."""
    t0 = time.perf_counter()

    model = ProjectivePoint(3)
    rng = np.random.default_rng(11)
    n = riemann_roch_dimension(model)["N"]
    a = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    state = bal.embedding_state(model, gram=a @ a.conj().T + np.eye(n),
                                n_radial=10)
    report = bal.balance_iterate(state, tol=1e-8, max_iter=200)
    stats = bal.balanced_density_stats(report.state)
    assert report.converged, "projective-plane balance did not converge"
    assert report.moment.norm_op < 1e-8
    assert stats["variance"] < 1e-7
    MASSES.append(("projective plane", stats["mass"], float(n)))
    TRACES.append(("projective plane",
                   float(abs(np.trace(report.moment.matrix)))))

    model = TrivialBundleOverPm(1, 2, 3)
    state = bal.embedding_state(model, n_radial=10)
    report = bal.balance_iterate(state, tol=1e-8, max_iter=200)
    stats = bal.balanced_density_stats(report.state)
    assert report.converged, "product-of-lines balance did not converge"
    assert report.moment.norm_op < 1e-8
    assert stats["variance"] < 1e-7
    MASSES.append(("product of lines k=3", stats["mass"],
                   float(riemann_roch_dimension(model)["N"])))
    TRACES.append(("product of lines k=3",
                   float(abs(np.trace(report.moment.matrix)))))

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget 2 min exceeded: {elapsed:.1f} s"


def test_c08_decay_order_classification():
    """Synthetic moment sequences with op norm exactly k^-(q+1) are
    classified as almost balanced to order q for q = 1, 2, 3 (fitted
    order at least q + 1 - 0.3).  Budget 10 seconds."""
    t0 = time.perf_counter()
    ks = range(2, 11)
    for q in (1, 2, 3):
        entries = [(k, Summary(norm_op=float(k) ** -(q + 1), d=0.5,
                               volume=3.0, count=6)) for k in ks]
        # the exact V/N of these entries: volume 3 over 6 sections
        verdict = bal.almost_balanced_check(entries, q=q,
                                            expected_d=[0.5] * len(entries))
        assert verdict.passes, f"order {q} sequence rejected"
        assert verdict.fitted_order >= q + 1 - 0.3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


def test_c09_normal_spectrum_scaling():
    """Balanced full systems of increasing degree on the line: the
    smallest positive normal-action eigenvalue shrinks, its reciprocal
    grows monotonically with log-log slope at most 4.5 over levels 1..5.
    Runs the moment-spectrum suite's per-level job and assembly.  Budget
    10 minutes."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="p1-sum", degrees=(0,), k_min=1, k_max=5,
                           n_radial=12, balance_tol=1e-9)
    results = [suites.spectrum_job(cfg, k) for k in cfg.ks]
    rows, exponent = suites.spectrum_assemble(cfg, results)
    lambdas = [res["lambda_z"] for res in results if res["lambda_z"] > 0.0]
    elapsed = time.perf_counter() - t0
    assert not math.isnan(exponent), "no positive levels to fit"
    assert exponent <= 4.5, f"growth exponent {exponent:.2f}"
    assert len(lambdas) >= 2
    assert all(b > a for a, b in zip(lambdas, lambdas[1:])), \
        f"lambda table not monotone: {lambdas}"
    # the two verdicts, then the k_min level's informational self-check row
    assert all(row["passed"] for row in rows[:2]), rows
    assert [row["name"] for row in rows[2:]] == ["torus-rule-degree"]
    assert elapsed < 600.0, f"budget 10 min exceeded: {elapsed:.1f} s"


def test_c10_mass_and_trace_bookkeeping():
    """Every experiment above must conserve the section count as the
    density integral (to 1e-8) and keep the moment trace-free (to 1e-10).
    A fresh split-model experiment is added so the check never runs on an
    empty ledger."""
    model = LineBundleSumOverP1((0, 1), 3)
    metric = SplitBundleMetric(1, (0, 1))
    direct = bg.rho_direct(model, bg.direct_table(
        metric, FS1, model,
        bg.adapted_total_rule(metric, model, n_radial=16)))
    MASSES.append(("fresh split k=3", direct.total_mass(),
                   float(riemann_roch_dimension(model)["N"])))
    state = bal.embedding_state(model, gram=direct.gram.matrix, n_radial=12)
    moment = bal.moment_map(state)
    TRACES.append(("fresh split k=3", float(abs(np.trace(moment.matrix)))))

    assert MASSES and TRACES
    for label, mass, count in MASSES:
        assert abs(mass - count) <= 1e-8, (
            f"{label}: density integral {mass!r} vs section count {count}")
    for label, trace in TRACES:
        assert trace <= 1e-10, f"{label}: moment trace {trace:.3e}"
