"""Command-line layer: configuration files, exit codes, reports, tables.

These tests drive `projbalance.cli.main` in process on small budgets.  The
numerical content behind each check row is covered by the library tests;
the contracts under test here are the configuration grammar, the exit-code
mapping (0 passed, 1 check failed, 2 numerical guard, 3 bad config), the
file formats, and the byte-level determinism of report.json.
"""

import dataclasses
import json
import logging
import re

import pytest

from projbalance import balancing as bal
from projbalance import bergman as bg
from projbalance import cli, suites
from projbalance.config import (
    ConfigError,
    ExperimentConfig,
    build_kahler,
    build_metric,
    build_model,
    default_config,
    parse_config,
    parse_config_text,
    serialize_config,
)
from projbalance.kahler import FubiniStudy
from projbalance.metrics import ConstantBundleMetric, SplitBundleMetric
from projbalance.sections import (
    LineBundleSumOverP1,
    ProjectivePoint,
    TrivialBundleOverPm,
)

COMMANDS = ("verify", "balance", "expansion", "moment-spectrum")

CHECKS_HEADER = "name,k,value,reference,error,tolerance,passed,detail"

TINY_VERIFY = """\
[model]
kind = p1-sum
degrees = 0
rank = 1

[sweep]
k_min = 2
k_max = 3
n_points = 40

[quadrature]
n_radial = 12
"""

TINY_BALANCE = """\
[model]
kind = pm-trivial
base_dim = 1
rank = 2

[sweep]
k_min = 2
k_max = 4
n_points = 40

[quadrature]
n_radial = 10
"""

TINY_EXPANSION = """\
[model]
kind = p1-sum
degrees = 0,1
rank = 2

[sweep]
k_min = 4
k_max = 8
n_points = 40

[quadrature]
n_radial = 12
"""

TINY_SPECTRUM = """\
[model]
kind = p1-sum
degrees = 0
rank = 1

[sweep]
k_min = 1
k_max = 3
n_points = 20

[quadrature]
n_radial = 8

[solver]
balance_tol = 1e-9
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def normalized_report_bytes(out_dir):
    text = (out_dir / "report.json").read_text()
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', text)


def header_of(path):
    return path.read_text().splitlines()[0]


class TestConfigFiles:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_configs_round_trip(self, command):
        cfg = default_config(command)
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_partial_file_keeps_other_defaults(self):
        cfg = parse_config_text("[sweep]\nk_min = 2\nk_max = 5\n")
        assert cfg == dataclasses.replace(ExperimentConfig(), k_min=2,
                                          k_max=5)

    def test_file_round_trip(self, tmp_path):
        cfg = dataclasses.replace(ExperimentConfig(), kind="pm-trivial",
                                  rank=3, k_min=2, k_max=9, seed=11)
        path = write_config(tmp_path, serialize_config(cfg))
        assert parse_config(path) == cfg

    def test_inline_comments_are_stripped(self):
        cfg = parse_config_text("[sweep]\nk_min = 2  ; lower level\n")
        assert cfg.k_min == 2

    def test_level_range_property(self):
        cfg = dataclasses.replace(ExperimentConfig(), k_min=3, k_max=6)
        assert cfg.ks == (3, 4, 5, 6)

    @pytest.mark.parametrize("text,fragment", [
        ("[model]\nkind = p1-sum\nshiny = 3\n",
         "unknown key [model] shiny (line 3)"),
        ("[models]\nkind = p1-sum\n", "unknown section [models]"),
        ("[sweep]\nk_min = soon\n", "bad value [sweep] k_min (line 2)"),
        ("[sweep]\nk_min = 9\nk_max = 4\n", "empty level range"),
        ("[model]\nkind = torus\n",
         "not one of point, p1-sum, pm-trivial"),
        ("[solver]\nbalance_tol = -1e-8\n", "must be positive"),
        ("[solver]\nbalance_tol = inf\n",
         "[solver] balance_tol (line 2): must be positive and finite"),
        ("[solver]\nflow_step = inf\n",
         "[solver] flow_step (line 2): must be positive and finite"),
        ("[checks]\nrho_tol = inf\n",
         "[checks] rho_tol (line 2): must be positive and finite"),
        ("[checks]\na1_rel_tol = inf\n",
         "[checks] a1_rel_tol (line 2): must be positive and finite"),
        ("[checks]\nd_tol = inf\n",
         "[checks] d_tol (line 2): must be positive and finite"),
        ("[checks]\nr_bound = nan\n",
         "[checks] r_bound (line 2): comparability bound must be finite"),
        ("[checks]\nr_bound = inf\n",
         "[checks] r_bound (line 2): comparability bound must be finite"),
        ("[solver]\nmethod = newton\n",
         "not one of t-iteration, gradient-flow"),
        ("[model]\nkind = point\nrank = 1\n", "rank"),
    ])
    def test_bad_configs_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert fragment in str(err.value)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nowhere.ini"))


class TestModelBuilders:
    def test_point_model(self):
        cfg = dataclasses.replace(ExperimentConfig(), kind="point", rank=3)
        model = build_model(cfg, k=4)
        want = dataclasses.replace(ProjectivePoint(3), k=4)
        assert model.label == want.label
        assert (model.m, model.r, model.k) == (0, 3, 4)
        metric = build_metric(cfg)
        assert isinstance(metric, ConstantBundleMetric)
        assert build_kahler(cfg).m == 0

    def test_split_model(self):
        cfg = ExperimentConfig()
        model = build_model(cfg, k=5)
        assert model.label == LineBundleSumOverP1((0, 1), k=5).label
        assert model.degrees == (0, 1) and model.k == 5
        assert isinstance(build_metric(cfg), SplitBundleMetric)
        assert build_kahler(cfg).m == 1

    def test_product_model(self):
        cfg = dataclasses.replace(ExperimentConfig(), kind="pm-trivial",
                                  base_dim=2, rank=2)
        model = build_model(cfg, k=3)
        assert model.label == TrivialBundleOverPm(2, 2, 3).label
        assert model.m == 2 and model.r == 2 and model.k == 3
        kahler = build_kahler(cfg)
        assert isinstance(kahler, FubiniStudy) and kahler.m == 2


class TestExitCodes:
    def test_no_subcommand_is_config_error(self, capsys):
        assert cli.main([]) == 3
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["verify", "--config", str(tmp_path / "no.ini")])
        assert rc == 3
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_names_location(self, tmp_path, capsys):
        path = write_config(tmp_path, "[model]\nkind = p1-sum\nshiny = 3\n")
        assert cli.main(["verify", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "[model] shiny" in err and "line 3" in err

    def test_empty_level_range(self, tmp_path, capsys):
        path = write_config(tmp_path, "[sweep]\nk_min = 9\nk_max = 4\n")
        assert cli.main(["verify", "--config", path]) == 3
        assert "empty level range" in capsys.readouterr().err

    def test_summand_twist_below_minus_k_min(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "[model]\nkind = p1-sum\ndegrees = -5,0\n\n"
                      "[sweep]\nk_min = 3\nk_max = 5\n")
        rc = cli.main(["expansion", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "[model] degrees" in err and "line 3" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override(self, tmp_path, capsys):
        rc = cli.main(["verify", "--seed", "-1",
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "configuration error" in err and "[output] seed" in err
        assert not (tmp_path / "out").exists()

    def test_workers_must_be_positive(self, tmp_path):
        path = write_config(tmp_path, TINY_SPECTRUM)
        rc = cli.main(["moment-spectrum", "--config", path, "--workers", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_expansion_needs_three_levels(self, tmp_path, capsys):
        path = write_config(
            tmp_path, TINY_EXPANSION.replace("k_max = 8", "k_max = 5"))
        rc = cli.main(["expansion", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "at least three levels" in capsys.readouterr().err

    def test_spectrum_needs_three_levels(self, tmp_path):
        path = write_config(
            tmp_path, TINY_SPECTRUM.replace("k_max = 3", "k_max = 2"))
        rc = cli.main(["moment-spectrum", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_level_beyond_budget_trips_guard(self, tmp_path, capsys):
        text = TINY_VERIFY.replace("k_min = 2", "k_min = 46")
        text = text.replace("k_max = 3", "k_max = 46")
        text = text.replace("n_radial = 12", "n_radial = 6")
        path = write_config(tmp_path, text)
        rc = cli.main(["verify", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical guard" in err and "condition" in err

    def test_failed_check_is_exit_one(self, tmp_path, capsys):
        text = TINY_BALANCE.replace("k_max = 4", "k_max = 2")
        text += "\n[checks]\nr_bound = 1.001\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["balance", "--config", path, "--out", str(out)])
        assert rc == 1
        assert "FAIL embedding-comparable" in capsys.readouterr().err
        report = load_report(out)
        assert report["passed"] is False
        assert report["failures"]
        repro = report["failures"][0]["repro"]
        assert repro.startswith("projbalance balance")
        assert "--config" in repro and "--seed 0" in repro


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    path = write_config(tmp, TINY_VERIFY)
    out = tmp / "out"
    rc = cli.main(["verify", "--config", path, "--out", str(out)])
    return rc, out


class TestVerifyRun:
    def test_exit_zero(self, verify_run):
        rc, _ = verify_run
        assert rc == 0

    def test_report_shape(self, verify_run):
        _, out = verify_run
        report = load_report(out)
        assert report["schema"] == 1
        assert report["command"] == "verify"
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["seed"] == 0
        assert set(report["versions"]) == {"python", "numpy", "projbalance"}
        echoed = parse_config_text(report["config"])
        assert echoed.kind == "p1-sum" and echoed.ks == (2, 3)

    def test_every_row_has_the_documented_fields(self, verify_run):
        _, out = verify_run
        report = load_report(out)
        keys = {"name", "k", "value", "reference", "error", "tolerance",
                "passed", "detail"}
        for row in report["checks"]:
            assert keys <= set(row)
        names = {row["name"] for row in report["checks"]}
        assert {"volume-constant", "quadrature-moments",
                "metric-round-trip", "fiber-average-top",
                "fiber-average-subleading", "density-route", "density-mass",
                "joint-linearization"} <= names
        route_ks = sorted(row["k"] for row in report["checks"]
                          if row["name"] == "density-route")
        assert route_ks == [2, 3]

    def test_checks_csv_header(self, verify_run):
        _, out = verify_run
        assert header_of(out / "checks.csv") == CHECKS_HEADER

    def test_timings_live_outside_the_report(self, verify_run):
        _, out = verify_run
        with open(out / "timings.json", encoding="utf-8") as fh:
            timings = fh.read()
        assert json.loads(timings)["run_seconds"] > 0.0
        assert "run_seconds" not in (out / "report.json").read_text()

    def test_timings_record_phases_and_levels(self, verify_run):
        _, out = verify_run
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"command", "run_seconds", "phases", "levels"}
        assert timings["command"] == "verify"
        assert set(timings["phases"]) == {
            "volume-constants", "quadrature", "round-trip", "fiber-averages",
            "push-forward-table", "joint-linearization"}
        assert timings["levels"].keys() == {"2", "3"}
        assert all(level.keys() == {"job_seconds"}
                   for level in timings["levels"].values())
        seconds = list(timings["phases"].values()) + [
            level["job_seconds"] for level in timings["levels"].values()]
        assert all(s > 0.0 for s in seconds)
        assert sum(seconds) <= timings["run_seconds"]

    def test_default_config_passes(self, tmp_path):
        rc = cli.main(["verify", "--out", str(tmp_path / "out")])
        assert rc == 0


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out)]) == 0
        first = normalized_report_bytes(out)
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out)]) == 0
        assert normalized_report_bytes(out) == first

    # verify and expansion send the shared push-forward table to the
    # workers; balance and moment-spectrum run the Anderson solver there
    @pytest.mark.parametrize("command, text", [
        ("verify", TINY_VERIFY),
        ("expansion", TINY_EXPANSION),
        ("balance", TINY_BALANCE),
        ("moment-spectrum", TINY_SPECTRUM),
    ], ids=["verify", "expansion", "balance", "moment-spectrum"])
    def test_workers_do_not_change_the_report(self, tmp_path, command, text):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        serial = normalized_report_bytes(out)
        assert cli.main([command, "--config", path, "--out", str(out),
                         "--workers", "2"]) == 0
        assert normalized_report_bytes(out) == serial

    def test_seed_override_reaches_the_report(self, tmp_path):
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out), "--seed", "7"]) == 0
        report = load_report(out)
        assert report["seed"] == 7
        assert "seed = 7" in report["config"]


@pytest.fixture(scope="module")
def balance_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("balance")
    path = write_config(tmp, TINY_BALANCE)
    out = tmp / "out"
    rc = cli.main(["balance", "--config", path, "--out", str(out)])
    return rc, out


class TestBalanceRun:
    def test_exit_zero(self, balance_run):
        rc, _ = balance_run
        assert rc == 0

    def test_summary_table(self, balance_run):
        _, out = balance_run
        header = header_of(out / "balance.csv")
        assert header == ("k,converged,diverged,iterations,final_norm_op,"
                          "initial_norm_op,ref_norm_op,d_value,volume,count,"
                          "trace_abs,rho_mass,rho_variance,rho_max_dev,"
                          "comparable")
        rows = (out / "balance.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[1] == "true" for row in rows)

    def test_trajectories_per_level(self, balance_run):
        _, out = balance_run
        for k in (2, 3, 4):
            path = out / f"trajectory_k{k}.csv"
            assert header_of(path) == "iteration,norm_op,norm_fro"
            assert len(path.read_text().splitlines()) >= 2

    def test_almost_balanced_verdict(self, balance_run):
        _, out = balance_run
        report = load_report(out)
        rows = [row for row in report["checks"]
                if row["name"] == "almost-balanced-order"]
        assert len(rows) == 1
        assert rows[0]["passed"] is True
        assert "reference-Gram" in rows[0]["detail"]

    def test_levels_report_convergence(self, balance_run):
        _, out = balance_run
        report = load_report(out)
        levels = report["results"]["levels"]
        assert [lv["k"] for lv in levels] == [2, 3, 4]
        assert all(lv["converged"] for lv in levels)
        assert all(lv["final_norm_op"] < 1e-8 for lv in levels)

    def test_levels_report_fallbacks(self, balance_run):
        _, out = balance_run
        levels = load_report(out)["results"]["levels"]
        assert all(isinstance(lv["fallback_steps"], int)
                   and 0 <= lv["fallback_steps"] <= lv["iterations"]
                   for lv in levels)
        # the summary table keeps its columns
        assert "fallback_steps" not in header_of(out / "balance.csv")

    def test_timings_keep_the_solve_time(self, balance_run):
        _, out = balance_run
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"command", "run_seconds", "levels"}
        assert timings["levels"].keys() == {"2", "3", "4"}
        for level in timings["levels"].values():
            assert level.keys() == {"job_seconds", "solve_seconds"}
            assert 0.0 < level["solve_seconds"] <= level["job_seconds"]
        assert "solve_seconds" not in (out / "report.json").read_text()

    def test_seed_two_is_comparable_at_k5(self):
        # the comparability points lie in the unit polydisc; drawn from an
        # unbounded Gaussian, seed 2 put one at |z| = 3.9 and failed here
        text = TINY_BALANCE.replace("n_radial = 10", "n_radial = 6")
        cfg = dataclasses.replace(parse_config_text(text), seed=2)
        res = suites.balance_job(cfg, 5)
        assert res["comparable"]
        assert res["comparable_c_a"] < cfg.r_bound

    def test_zero_iterations_flagged_not_failed(self, tmp_path):
        text = TINY_BALANCE.replace("k_max = 4", "k_max = 2")
        text += "\n[solver]\nbalance_tol = 1e-12\nmax_iter = 0\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["balance", "--config", path, "--out", str(out)])
        assert rc == 0
        report = load_report(out)
        level = report["results"]["levels"][0]
        assert level["converged"] is False
        assert level["iterations"] == 0
        names = [row["name"] for row in report["checks"]]
        assert "density-flat" not in names
        row = (out / "balance.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "false"


@pytest.fixture(scope="module")
def expansion_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("expansion")
    path = write_config(tmp, TINY_EXPANSION)
    out = tmp / "out"
    rc = cli.main(["expansion", "--config", path, "--out", str(out)])
    return rc, out


class TestExpansionRun:
    def test_exit_zero(self, expansion_run):
        rc, _ = expansion_run
        assert rc == 0

    def test_first_correction_tables(self, expansion_run):
        _, out = expansion_run
        header = header_of(out / "a1_table.csv")
        assert header == ("point,row,col,fitted_re,fitted_im,closed_re,"
                          "closed_im,level_avg_re,level_avg_im")
        rows = (out / "a1_table.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 * 2 * 2
        assert header_of(out / "density.csv") == (
            "k,sections,mass,volume,rho_mean,rho_variance,rho_max_dev")

    def test_candidate_discrepancy_is_reported(self, expansion_run):
        _, out = expansion_run
        report = load_report(out)
        rows = [row for row in report["checks"]
                if row["name"] == "expansion-a1-closed-vs-level-average"]
        assert len(rows) == 1
        assert rows[0]["passed"] is None
        assert abs(rows[0]["value"] - 0.5) < 0.05

    def test_fitted_correction_matches_level_average(self, expansion_run):
        _, out = expansion_run
        report = load_report(out)
        row = next(r for r in report["checks"]
                   if r["name"] == "expansion-a1-vs-level-average")
        assert row["passed"] is True
        assert row["value"] <= 0.02

    def test_timings_record_the_table_phase(self, expansion_run):
        _, out = expansion_run
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"command", "run_seconds", "phases", "levels"}
        assert set(timings["phases"]) == {"push-forward-table"}
        assert timings["levels"].keys() == {"4", "5", "6", "7", "8"}

    def test_point_base_uses_the_degenerate_path(self, tmp_path):
        text = "[model]\nkind = point\nrank = 3\n[sweep]\nk_min = 2\n" \
               "k_max = 4\n[quadrature]\nn_radial = 6\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main(["expansion", "--config", path, "--out", str(out)])
        assert rc == 0
        report = load_report(out)
        names = {row["name"] for row in report["checks"]}
        assert "expansion-degenerate-flat" in names
        assert "expansion-a1-vs-level-average" not in names
        assert not (out / "a1_table.csv").exists()
        assert (out / "density.csv").exists()


class TestSharedPushForwardTable:
    """The trace route's push-forward table does not depend on the level,
    so a run builds it once for its whole sweep.  The other calls are the
    fixed ones outside the sweep: the three weighted fiber averages of
    `verify`, and `a1_alternative` in `expansion`."""

    @pytest.mark.parametrize("command, text, fixed", [
        ("verify", TINY_VERIFY, 3),
        ("expansion", TINY_EXPANSION, 1),
    ], ids=["verify", "expansion"])
    def test_one_table_per_sweep(self, tmp_path, monkeypatch, command, text,
                                 fixed):
        original = bg.push_forward_table
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bg, "push_forward_table", counting)
        path = write_config(tmp_path, text)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1 + fixed


class TestSpectrumRun:
    def test_sweep_report_and_table(self, tmp_path):
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        rc = cli.main(["moment-spectrum", "--config", path,
                       "--out", str(out)])
        assert rc == 0
        assert header_of(out / "spectrum.csv") == (
            "k,lambda_z,smallest_eig,kernel_dim,dimension,samples,"
            "converged,final_norm_op")
        report = load_report(out)
        exponent = report["results"]["exponent"]
        assert 0.0 < exponent <= 4.5
        row = next(r for r in report["checks"]
                   if r["name"] == "spectrum-growth-exponent")
        assert row["passed"] is True
        row = next(r for r in report["checks"]
                   if r["name"] == "spectrum-monotone")
        assert row["passed"] is True
        levels = report["results"]["levels"]
        assert [lv["k"] for lv in levels] == [1, 2, 3]
        # O(1) on P^1 is a full linear system, balanced from the start
        assert levels[0]["iterations"] == 0
        assert all(lv["iterations"] > 0 for lv in levels[1:])
        assert levels[0]["fallback_steps"] == 0
        assert all(0 <= lv["fallback_steps"] <= lv["iterations"]
                   for lv in levels)

    def test_gradient_flow_method_runs_the_flow(self, monkeypatch):
        original = bal.flow_iterate
        calls = []
        reports = []

        def recording(state, **kwargs):
            calls.append(kwargs)
            reports.append(original(state, **kwargs))
            return reports[-1]

        monkeypatch.setattr(bal, "flow_iterate", recording)
        cfg = dataclasses.replace(parse_config_text(TINY_SPECTRUM),
                                  method="gradient-flow", flow_step=0.5)
        result = suites.spectrum_job(cfg, 2)
        assert calls == [{"tol": cfg.balance_tol, "max_iter": cfg.max_iter,
                          "step": 0.5}]
        assert result["converged"]
        assert result["iterations"] == reports[0].iterations

    def test_t_iteration_method_runs_the_anderson_solver(self, monkeypatch):
        original = bal.balance_iterate
        calls = []
        reports = []

        def recording(state, **kwargs):
            calls.append(kwargs)
            reports.append(original(state, **kwargs))
            return reports[-1]

        monkeypatch.setattr(bal, "balance_iterate", recording)
        cfg = parse_config_text(TINY_SPECTRUM)
        assert cfg.method == "t-iteration"
        result = suites.spectrum_job(cfg, 2)
        assert calls == [{"tol": cfg.balance_tol, "max_iter": cfg.max_iter}]
        assert result["converged"]
        assert result["iterations"] == reports[0].iterations
        assert result["fallback_steps"] == reports[0].fallback_steps


class TestLogLevel:
    @pytest.fixture(autouse=True)
    def restore_package_level(self):
        logger = logging.getLogger("projbalance")
        level = logger.level
        yield
        logger.setLevel(level)

    @staticmethod
    def level_lines(caplog):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "projbalance.suites"
                and rec.levelno == logging.INFO]

    def test_info_logs_one_line_per_level(self, tmp_path, caplog):
        path = write_config(tmp_path, TINY_SPECTRUM)
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(tmp_path / "out"),
                         "--log-level", "info"]) == 0
        lines = self.level_lines(caplog)
        assert [line.split(":")[0] for line in lines] == [
            "spectrum k=1", "spectrum k=2", "spectrum k=3"]

    @pytest.mark.parametrize("command, text, ks", [
        ("verify", TINY_VERIFY, (2, 3)),
        ("expansion", TINY_EXPANSION, (4, 5, 6, 7, 8)),
        ("expansion", "[model]\nkind = point\nrank = 3\n[sweep]\n"
                      "k_min = 2\nk_max = 4\n[quadrature]\nn_radial = 6\n",
         (2, 3, 4)),
    ], ids=["verify", "expansion", "expansion-point-base"])
    def test_sweeps_log_one_line_per_level(self, tmp_path, caplog, command,
                                           text, ks):
        path = write_config(tmp_path, text)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out"),
                         "--log-level", "info"]) == 0
        lines = self.level_lines(caplog)
        assert [line.split(":")[0] for line in lines] == [
            f"{command} k={k}" for k in ks]

    def test_default_level_is_warning(self, tmp_path, caplog):
        path = write_config(tmp_path, TINY_SPECTRUM)
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        assert self.level_lines(caplog) == []
        assert logging.getLogger("projbalance").level == logging.WARNING

    def test_unknown_level_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_SPECTRUM)
        assert cli.main(["moment-spectrum", "--config", path,
                         "--log-level", "chatty"]) == 3
        assert "--log-level" in capsys.readouterr().err
