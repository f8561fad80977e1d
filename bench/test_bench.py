"""Fast tests of the benchmark itself; they run no workload.

    python3 -m pytest bench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import projbalance  # noqa: E402
from projbalance import bergman, metrics, quadrature, suites  # noqa: E402
from projbalance.kahler import FubiniStudy  # noqa: E402
from projbalance.sections import LineBundleSumOverP1  # noqa: E402


# ---------------------------------------------------------------------------
# closed-form checks
# ---------------------------------------------------------------------------

def _row(name, value, *, k=None, detail="", passed=True):
    return {"name": name, "k": k, "value": value, "detail": detail,
            "passed": passed}


def _verify_report():
    rows = [_row("volume-constant",
                 (2 * math.pi) ** (r - 1) / math.factorial(r),
                 detail=f"rank {r}") for r in range(1, 6)]
    rows.append(_row("quadrature-moments", 0.0))
    rows.append(_row("quadrature-moments", 2e-4, passed=None))
    rows += [_row("metric-round-trip", 1e-12, detail=f"rank {r}, 10 inputs")
             for r in (2, 3)]
    rows += [_row("fiber-average-top", 0.0)]
    rows += [_row("fiber-average-subleading", 0.0) for _ in range(2)]
    for k in WORKLOADS["verify"].ks:
        rows.append(_row("density-route", 1e-13, k=k))
        rows.append(_row("density-mass", float(2 * k + 3), k=k))
    rows += [_row("joint-linearization", 1e-4) for _ in range(5)]
    return {"checks": rows}


def _balance_report():
    levels = [{"k": k, "converged": True, "volume": float(k),
               "rho_mass": float(2 * (k + 1)), "d_value": k / (2 * (k + 1)),
               "trace_abs": 1e-14} for k in WORKLOADS["balance"].ks]
    return {"checks": [_row("x", 0.0)
                       for _ in range(WORKLOADS["balance"].judged)],
            "results": {"levels": levels}}


def _spectrum_report():
    levels = [{"k": k, "converged": True, "dimension": (2 * k + 2) ** 2 - 1,
               "kernel_dim": 6, "lambda_z": 9.0 + k}
              for k in WORKLOADS["spectrum"].ks]
    return {"checks": [_row("x", 0.0) for _ in range(2)],
            "results": {"levels": levels}}


def _trace_levels():
    return {"balancing.sigma_z_operator.trace":
            {str(k): float((2 * k - 1) * k) for k in WORKLOADS["spectrum"].ks}}


def _failing(name, report, levels=None):
    return [c.label for c in WORKLOADS[name].checks(report, levels)
            if not c.passes]


def _set_row(report, name, value, **where):
    for row in report["checks"]:
        if row["name"] == name and all(
                (row["k"] if key == "k" else row["detail"].split(",")[0])
                == want for key, want in where.items()):
            row["value"] = value
            return report
    raise KeyError(name)


def test_closed_form_reports_pass():
    assert _failing("verify", _verify_report()) == []
    assert _failing("balance", _balance_report()) == []
    assert _failing("spectrum", _spectrum_report(), _trace_levels()) == []


def test_empty_report_fails_every_check():
    for name, wl in WORKLOADS.items():
        checks = wl.checks({}, {})
        assert checks and not any(c.passes for c in checks), name


@pytest.mark.parametrize("k", WORKLOADS["verify"].ks)
def test_density_mass_rejects_perturbation(k):
    want = float(2 * k + 3)
    inside = _set_row(_verify_report(), "density-mass", want + 0.5e-8, k=k)
    assert _failing("verify", inside) == []
    outside = _set_row(_verify_report(), "density-mass", want + 2e-8, k=k)
    assert _failing("verify", outside) == [f"density-mass k={k} = N(k)"]


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_volume_constant_rejects_perturbation(rank):
    want = (2 * math.pi) ** (rank - 1) / math.factorial(rank)
    report = _set_row(_verify_report(), "volume-constant", want - 2e-8,
                      rank=f"rank {rank}")
    assert _failing("verify", report) == [f"volume-constant rank {rank}"]


def test_round_trip_rejects_perturbation():
    report = _set_row(_verify_report(), "metric-round-trip", 2e-9,
                      rank="rank 3")
    assert _failing("verify", report) == ["metric-round-trip rank 3 <= 1e-9"]


def test_left_out_rows_are_not_operations():
    report = _balance_report()
    report["checks"] += [_row("embedding-comparable", 3e7, k=k, passed=False)
                         for k in WORKLOADS["balance"].ks]
    assert _failing("balance", report) == []
    rnd = run.Round(exit=1, setup_s=0.2, run_s=1.0, cpu_s=1.0,
                    peak_rss_mb=1.0, wall_s=1.2, report=report, trace={})
    wl = WORKLOADS["balance"]
    attempted = wl.judged + len(wl.checks({}))
    assert run._judge(wl, rnd, traced=False) == (attempted, 0, 0)


def test_round_accounting():
    wl = WORKLOADS["verify"]
    attempted = wl.judged + len(wl.checks({}))
    crashed = run.Round(exit=2, setup_s=0.2, run_s=1.0, cpu_s=1.0,
                        peak_rss_mb=1.0, wall_s=1.2, report={}, trace={})
    assert run._judge(wl, crashed, traced=False) == (attempted, attempted, 0)
    report = _set_row(_verify_report(), "density-mass", 0.0, k=4)
    report["checks"][0]["passed"] = False
    wrong = run.Round(exit=1, setup_s=0.2, run_s=1.0, cpu_s=1.0,
                      peak_rss_mb=1.0, wall_s=1.2, report=report, trace={})
    assert run._judge(wl, wrong, traced=False) == (attempted, 2, 2)


def test_missing_judged_row_is_caught():
    report = _verify_report()
    report["checks"].pop()
    assert _failing("verify", report) == ["judged rows"]


@pytest.mark.parametrize("key,delta,label", [
    ("volume", 2e-8, "volume k=4 = k"),
    ("rho_mass", -2e-8, "rho_mass k=4 = N"),
    ("d_value", 2e-10, "d_value k=4 = k/N"),
    ("trace_abs", 2e-10, "trace_abs k=4 <= 1e-10"),
    ("converged", None, "converged k=4"),
])
def test_balance_rejects_perturbation(key, delta, label):
    report = _balance_report()
    level = report["results"]["levels"][2]
    assert level["k"] == 4
    level[key] = False if delta is None else level[key] + delta
    assert _failing("balance", report) == [label]
    if delta is not None and key != "trace_abs":
        report = _balance_report()
        report["results"]["levels"][2][key] += delta / 4
        assert _failing("balance", report) == []


@pytest.mark.parametrize("key,value,label", [
    ("dimension", 99 + 1, "dimension k=4 = N^2-1"),
    ("kernel_dim", 7, "kernel_dim k=4 = 6"),
    ("converged", False, "converged k=4"),
    ("lambda_z", 12.0, "lambda_z rises strictly"),
])
def test_spectrum_rejects_perturbation(key, value, label):
    report = _spectrum_report()
    level = report["results"]["levels"][2]
    assert level["k"] == 4
    level[key] = value
    assert _failing("spectrum", report, _trace_levels()) == [label]


def test_trace_q_rejects_relative_perturbation():
    levels = _trace_levels()
    traces = levels["balancing.sigma_z_operator.trace"]
    traces["4"] *= 1.0 + 0.5e-10
    assert _failing("spectrum", _spectrum_report(), levels) == []
    traces["4"] *= 1.0 + 2e-10
    assert _failing("spectrum", _spectrum_report(), levels) == [
        "tr Q k=4 = (2k-1)k"]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

@pytest.fixture
def traced():
    tracer = layers.Tracer()
    installation = layers.install(tracer, projbalance)
    try:
        yield tracer
    finally:
        installation.remove()


def test_wrapped_functions_return_the_unwrapped_results(traced):
    model = LineBundleSumOverP1((0, 1), 2)
    metric = metrics.SplitBundleMetric(1, (0, 1))
    rule = bergman.adapted_total_rule(metric, model, n_radial=4)
    pts = rule.points[:50]

    got = bergman.hat_form_matrix(metric, model, pts)
    want = bergman.hat_form_matrix.__wrapped__(metric, model, pts)
    np.testing.assert_array_equal(got, want)
    assert traced.counts["bergman.hat_form_matrix.nodes"] == 50

    z = pts[:, :1]
    unwrapped = metrics.BundleMetricField.inverse.__wrapped__
    np.testing.assert_array_equal(metric.inverse(z), unwrapped(metric, z))
    dens = bergman.level_volume_density(metric, FubiniStudy(1), model, pts)
    np.testing.assert_array_equal(
        dens, bergman.level_volume_density.__wrapped__(
            metric, FubiniStudy(1), model, pts))
    rule2 = quadrature.chart_rule(1, n_radial=5)
    plain = quadrature.chart_rule.__wrapped__(1, n_radial=5)
    np.testing.assert_array_equal(rule2.points, plain.points)

    names = {span[0] for span in traced.spans}
    assert {"bergman.hat_form_matrix", "metrics.bundle_metric",
            "bergman.level_volume_density", "quadrature.chart_rule"} <= names
    assert traced.counts["quadrature.chart_rule.nodes"] > 0


def test_every_binding_is_wrapped_and_restored():
    originals = (projbalance.sections.chart_rule, suites.integrate,
                 projbalance.balancing.adapted_total_rule,
                 projbalance.cli._RUNNERS["verify"],
                 metrics.SplitBundleMetric.matrix)
    installation = layers.install(layers.Tracer(), projbalance)
    try:
        # base_rule and fiber_rule reach chart_rule through sections
        assert projbalance.sections.chart_rule is quadrature.chart_rule
        assert quadrature.chart_rule.__wrapped__ is originals[0]
        assert suites.integrate is quadrature.integrate
        assert suites.integrate.__wrapped__ is originals[1]
        assert (projbalance.balancing.adapted_total_rule
                is bergman.adapted_total_rule)
        assert projbalance.balancing.adapted_total_rule.__wrapped__ \
            is originals[2]
        assert projbalance.cli._RUNNERS["verify"].__wrapped__ is originals[3]
    finally:
        installation.remove()
    assert (projbalance.sections.chart_rule, suites.integrate,
            projbalance.balancing.adapted_total_rule,
            projbalance.cli._RUNNERS["verify"],
            metrics.SplitBundleMetric.matrix) == originals


def test_nested_calls_count_rows_once(traced):
    metric = metrics.SplitBundleMetric(1, (0, 1))
    z = np.array([[0.1 + 0.2j], [0.1 + 0.2j], [0.3j]])
    metric.inverse(z)  # inverse calls matrix
    assert traced.counts["metrics.bundle_metric.rows"] == 3
    assert traced.counts["metrics.bundle_metric.distinct_rows"] == 2
    assert [s[0] for s in traced.spans] == ["metrics.bundle_metric"] * 2
    assert traced.spans[1][3] == 0


# ---------------------------------------------------------------------------
# self times
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_add_up_to_the_root():
    clock = _Clock()
    tracer = layers.Tracer(clock=clock)
    root = tracer.open(layers.ROOT)
    for name, inner in (("suites.job", 2), ("suites.job", 1),
                        ("reports.write", 0)):
        clock.t += 0.25
        span = tracer.open(name)
        for _ in range(inner):
            clock.t += 0.5
            child = tracer.open("bergman.hat_form_matrix")
            clock.t += 1.0
            grand = tracer.open("metrics.bundle_metric")
            clock.t += 0.125
            tracer.close(grand)
            tracer.close(child)
        clock.t += 0.0625
        tracer.close(span)
    clock.t += 0.03125
    tracer.close(root)

    spans = layers.load_spans(tracer.dump())
    selfs = layers.self_times(spans)
    assert sum(selfs) == pytest.approx(spans[root][2] - spans[root][1],
                                       abs=1e-12)
    metrics_ = layers.layer_metrics(tracer.dump(), traced_run_s=10.0,
                                    untraced_run_s=9.0)
    assert metrics_["bergman.hat_form_matrix.s"]["value"] == pytest.approx(3.0)
    assert metrics_["bergman.hat_form_matrix.calls"]["value"] == 3
    assert metrics_["suites.job.max_s"]["value"] == pytest.approx(
        2 * 1.625 + 0.0625)
    assert metrics_["cli.overhead_s"]["value"] == pytest.approx(
        3 * 0.25 + 0.03125)
    assert metrics_["trace.overhead_s"]["value"] == pytest.approx(1.0)
    assert set(metrics_) == {name for name, _ in layers.PER_LAYER}


def test_untimed_bookkeeping_is_kept_out_of_spans():
    clock = _Clock()
    tracer = layers.Tracer(clock=clock)
    idx = tracer.open("outer")
    clock.t += 1.0
    with tracer.untimed():
        clock.t += 5.0
    clock.t += 1.0
    tracer.close(idx)
    assert tracer.spans[idx][2] - tracer.spans[idx][1] == pytest.approx(2.0)


def test_benchmark_json_lists_the_workloads_and_layers():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        wl.why for wl in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "run_s", "setup_s", "cpu_s", "peak_rss_mb"]
