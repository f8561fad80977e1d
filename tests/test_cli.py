"""Command-line layer: configuration files, exit codes, reports, tables.

These tests drive `projbalance.cli.main` in process on small budgets.  The
numerical content behind each check row is covered by the library tests;
the contracts under test here are the configuration grammar, the exit-code
mapping (0 passed, 1 check failed, 2 numerical guard or out of memory, 3
bad config), the file formats, and the byte-level determinism of
report.json.
"""

import dataclasses
import json
import logging
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from projbalance import balancing as bal
from projbalance import bergman as bg
from projbalance import cli, config, suites
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
from projbalance.errors import NumericalGuardError
from projbalance.kahler import FubiniStudy
from projbalance.metrics import (
    BundleMetricField,
    ConstantBundleMetric,
    SplitBundleMetric,
)
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


# how the parse error of a file with a [checks] section on its first line
# names it: the sections it expected, which no longer include [checks]
UNKNOWN_CHECKS = ("[checks] (line 1); expected one of model, sweep, "
                  "quadrature, solver, output")

# keys that earlier configuration files could set, each with the error it
# gets now
REMOVED_KEYS = [
    ("[solver]\nmethod = gradient-flow\n",
     "unknown key [solver] method (line 2)"),
    ("[solver]\nmax_iter = 400\n", "unknown key [solver] max_iter (line 2)"),
    ("[solver]\nflow_step = 1.0\n",
     "unknown key [solver] flow_step (line 2)"),
] + [(f"[checks]\n{key} = {value}\n", "unknown section " + UNKNOWN_CHECKS)
     for key, value in (("rho_tol", "1e-5"), ("a1_rel_tol", "0.02"),
                        ("order_q", "0"), ("r_bound", "1e7"),
                        ("d_tol", "1e-8"))]


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


def run_fresh(code):
    """Standard output of `code` run in a fresh interpreter that imports
    the package from this checkout: what a run loads shows only there,
    since the test process has imported more."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


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
        # the single-valued solver keys and the [checks] section are
        # constants of the code now: files that set them are rejected
        ("[solver]\nflow_step = inf\n", "[solver] flow_step (line 2)"),
        ("[checks]\nrho_tol = inf\n", UNKNOWN_CHECKS),
        ("[checks]\na1_rel_tol = inf\n", UNKNOWN_CHECKS),
        ("[checks]\nd_tol = inf\n", UNKNOWN_CHECKS),
        ("[checks]\nr_bound = nan\n", UNKNOWN_CHECKS),
        ("[checks]\nr_bound = inf\n", UNKNOWN_CHECKS),
        ("[solver]\nmethod = newton\n",
         "unknown key [solver] method (line 2)"),
        ("[model]\nkind = point\nrank = 1\n", "rank"),
    ])
    def test_bad_configs_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert fragment in str(err.value)

    def test_layout_is_documented(self):
        docs = {"config module": config.__doc__, "--help epilog": cli._EPILOG}
        for where, text in docs.items():
            for section, key, *_ in config._LAYOUT:
                assert f"[{section}]" in text, (where, section)
                assert re.search(rf"\b{key}\b", text), (where, key)
            assert "[checks]" not in text, where
            for key in ("method", "max_iter", "flow_step", "rho_tol",
                        "a1_rel_tol", "order_q", "r_bound", "d_tol"):
                assert not re.search(rf"\b{key}\b", text), (where, key)

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

    @pytest.mark.parametrize("text, message", REMOVED_KEYS,
                             ids=[text.split("\n")[1].split(" =")[0]
                                  for text, _ in REMOVED_KEYS])
    def test_removed_keys_exit_three(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, text)
        rc = cli.main(["balance", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_volume_twists(self, tmp_path, capsys, command):
        # every twist is 0 at k = 1: the sections are there, but the total
        # space has zero volume, so no subcommand can run
        path = write_config(
            tmp_path, "[model]\nkind = p1-sum\ndegrees = -1,-1\n\n"
                      "[sweep]\nk_min = 1\nk_max = 3\n")
        rc = cli.main([command, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "[model] degrees" in err and "zero volume" in err
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

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, workers):
            raise MemoryError("Unable to allocate 9.00 GiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "verify", exhausted)
        out = tmp_path / "out"
        assert cli.main(["verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "out of memory: Unable to allocate 9.00 GiB" in err
        assert "[sweep] k_max" in err and "[quadrature] n_radial" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_out_of_memory_names_the_level(self, tmp_path, capsys,
                                           monkeypatch, workers):
        # a level's MemoryError reaches the exit message with its k, from a
        # worker process too (forked, so it inherits the patched module)
        real = suites._balanced_level

        def exhausted_at_two(cfg, k):
            if k == 2:
                raise MemoryError("Unable to allocate 9.00 GiB for an array "
                                  "with shape (130680, 30, 30)")
            return real(cfg, k)

        monkeypatch.setattr(suites, "_balanced_level", exhausted_at_two)
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path, "--out",
                         str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert ("out of memory at k=2: Unable to allocate 9.00 GiB for an "
                "array with shape (130680, 30, 30); lower [sweep] k_max or "
                "[quadrature] n_radial") in err
        assert not (out / "report.json").exists()

    def test_failed_check_is_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(suites, "_R_BOUND", 1.001)
        text = TINY_BALANCE.replace("k_max = 4", "k_max = 2")
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
            "sweep-tables", "joint-linearization"}
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

    def test_point_base_reports_routes_without_judging(self, tmp_path):
        # a point base has one push-forward table on a zero-dimensional
        # base (m = 0) and no density routes to cross
        text = "[model]\nkind = point\nrank = 3\n[sweep]\nk_min = 1\n" \
               "k_max = 3\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
        rows = load_report(out)["checks"]
        routes = [row for row in rows if row["name"] == "density-route"]
        assert [row["k"] for row in routes] == [1, 2, 3]
        assert all(row["passed"] is None for row in routes)
        degree = [row for row in rows if row["name"] == "adapted-fiber-degree"]
        assert len(degree) == 1 and degree[0]["value"] <= 1e-10


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
    # workers; balance and moment-spectrum run the Newton solver there
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


# modules a run has no use for: numpy's generators (which load OpenSSL
# through secrets and hashlib), numpy.polynomial and numpy.ma cost
# megabytes of peak memory and milliseconds of start-up
UNUSED_MODULES = ("numpy.random", "numpy.polynomial", "numpy.ma", "_hashlib",
                  "secrets")


class TestImportFootprint:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_run_loads_no_generator_or_polynomial(self, tmp_path,
                                                          command):
        code = (
            "import sys\n"
            "from projbalance import cli\n"
            f"rc = cli.main([{command!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            "assert rc == 0, rc\n"
            f"print([m for m in {UNUSED_MODULES!r} if m in sys.modules])\n")
        assert run_fresh(code) == "[]"


class TestSeededDraws:
    def test_same_seed_same_arrays(self):
        for normal in (False, True):
            first = suites._draws(random.Random(5), (40, 3), normal=normal)
            again = suites._draws(random.Random(5), (40, 3), normal=normal)
            assert first.shape == (40, 3)
            assert np.array_equal(first, again)

    def test_neighbouring_seeds_differ(self):
        for seed in range(5):
            for normal in (False, True):
                a = suites._draws(random.Random(seed), (7,), normal=normal)
                b = suites._draws(random.Random(seed + 1), (7,), normal=normal)
                assert not np.any(a == b)

    def test_normals_are_standard(self):
        # an odd count: the last Box-Muller pair gives one value
        x = suites._draws(random.Random(0), (100_001,), normal=True)
        assert x.shape == (100_001,) and np.isfinite(x).all()
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0),
                                        (0.0, 2.0 * math.pi)])
    def test_uniforms_lie_in_the_interval(self, lo, hi):
        u = suites._draws(random.Random(1), (100_000,), lo, hi)
        assert lo <= u.min() and u.max() < hi
        assert abs(u.mean() - (lo + hi) / 2) < 0.01 * (hi - lo)

    def test_successive_arrays_continue_one_stream(self):
        # a site draws its arrays one after another from one generator
        both = suites._draws(random.Random(3), (8,))
        rng = random.Random(3)
        assert np.array_equal(both[:4], suites._draws(rng, (4,)))
        assert np.array_equal(both[4:], suites._draws(rng, (4,)))

    def test_comparability_points_lie_in_the_unit_polydisc(self,
                                                          monkeypatch):
        seen = []
        check = bal.r_bounded_check

        def spy(state, initial, pts, **kwargs):
            seen.append(pts)
            return check(state, initial, pts, **kwargs)

        monkeypatch.setattr(bal, "r_bounded_check", spy)
        text = TINY_BALANCE.replace("n_radial = 10", "n_radial = 6")
        for seed in (0, 1):
            cfg = dataclasses.replace(parse_config_text(text), seed=seed)
            suites.balance_job(cfg, 2, suites.sweep_tables(cfg)[0])
        assert len(seen) == 2
        assert all(pts.shape == (16, 2) for pts in seen)
        assert all(np.abs(pts).max() < 1.0 for pts in seen)
        assert not np.array_equal(*seen)


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

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma costs tens of milliseconds to import; a fresh
        # interpreter shows whether anything in a balance run pulls it in
        path = write_config(tmp_path, TINY_BALANCE)
        code = (
            "import sys\n"
            "from projbalance import cli\n"
            f"rc = cli.main(['balance', '--config', {path!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            "assert rc == 0, rc\n"
            "print('numpy.ma' in sys.modules)\n")
        assert run_fresh(code) == "False"

    def test_import_does_not_load_multiprocessing(self):
        # the process pool serves --workers > 1 only, and a fresh
        # interpreter shows whether importing the CLI loads it anyway
        code = ("import sys\n"
                "from projbalance import cli\n"
                "print('concurrent.futures.process' in sys.modules)\n")
        assert run_fresh(code) == "False"

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
        # on P^1 x P^1 every reference moment is at roundoff: the row
        # passes on d alone and says so
        assert rows[0]["value"] is None
        assert rows[0]["detail"] == (
            "reference exactly balanced (every ||mu_ref|| < 1e-12): order "
            "not tested, d judged")

    def test_almost_balanced_row_names_a_fitted_order(self, balance_run):
        _, out = balance_run
        cfg = parse_config_text(TINY_BALANCE)
        levels = [dict(level, ref_norm_op=float(level["k"]) ** -2)
                  for level in load_report(out)["results"]["levels"]]
        row = suites.almost_balanced_row(cfg, levels)
        assert row["passed"] is True
        assert row["value"] == pytest.approx(2.0, rel=1e-12)
        assert row["detail"] == ("fitted decay order of the reference-Gram "
                                 "moments, claimed q=0")

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
        assert set(timings) == {"command", "run_seconds", "phases", "levels"}
        assert set(timings["phases"]) == {"sweep-tables"}
        assert timings["phases"]["sweep-tables"] > 0.0
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
        res = suites.balance_job(cfg, 5, suites.sweep_tables(cfg)[0])
        assert res["comparable"]
        assert res["comparable_c_a"] < suites._R_BOUND

    def test_almost_balanced_row_judges_d_against_the_volume(self,
                                                             balance_run):
        # d = V/N of the reference Gram against the exact degree count: a
        # reference volume off by 1e-6 at one level fails the row
        _, out = balance_run
        cfg = parse_config_text(TINY_BALANCE)
        levels = load_report(out)["results"]["levels"]
        row = suites.almost_balanced_row(cfg, levels)
        assert row["passed"] is True
        assert row["error"] < 1e-12
        drifted = [dict(level) for level in levels]
        drifted[1]["ref_volume"] += 1e-6
        drifted[1]["ref_d"] = drifted[1]["ref_volume"] / drifted[1]["count"]
        row = suites.almost_balanced_row(cfg, drifted)
        assert row["passed"] is False
        assert row["error"] == pytest.approx(1e-6 / drifted[1]["count"],
                                             rel=1e-6)

    def test_failing_d_check_names_the_level_and_the_knob(self, tmp_path):
        # P^1 x P^1 at k 8..12 on 6 radial nodes: the reference volume at
        # k = 12 misses V = 12 by 4.5e-5, and the row says where and what
        # to raise
        text = TINY_BALANCE.replace("k_min = 2", "k_min = 8").replace(
            "k_max = 4", "k_max = 12").replace("n_radial = 10", "n_radial = 6")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["balance", "--config", path, "--out", str(out)]) == 1
        [row] = [row for row in load_report(out)["checks"]
                 if row["name"] == "almost-balanced-order"]
        assert row["passed"] is False and row["error"] > 1e-8
        assert row["detail"].startswith(
            "fitted decay order of the reference-Gram moments, claimed q=0; "
            "d = ")
        assert "at k=12 against V/N = 0.4615384615" in row["detail"]
        assert "raise [quadrature] n_radial" in row["detail"]

    def test_zero_iterations_flagged_not_failed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suites, "_MAX_ITER", 0)
        text = TINY_BALANCE.replace("k_max = 4", "k_max = 2")
        text += "\n[solver]\nbalance_tol = 1e-12\n"
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
        assert set(timings["phases"]) == {"sweep-tables"}
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
    so a run builds it once for its whole sweep, and its self-check
    rebuilds it once on two more fiber angles: two builds per sweep, never
    one per level.  The other calls are the fixed ones outside the sweep:
    the three weighted fiber averages of `verify`, and `a1_alternative` in
    `expansion`."""

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
        assert len(calls) == 2 + fixed


class TestSweepTables:
    """Both density routes' tables are k-independent: a run builds them
    once, before its first level, and a level only combines them with k.
    No level's direct route builds a rule, volume coefficients or a hat
    weight, or inverts the bundle metric at its rule nodes."""

    @staticmethod
    def count_level_work(monkeypatch):
        counts = {"inverse": [], "volume_coefficients": 0,
                  "adapted_total_rule": 0, "hat_weight": 0}
        inverse = BundleMetricField.inverse

        def counted_inverse(self, z):
            counts["inverse"].append(np.asarray(z).shape[0])
            return inverse(self, z)

        monkeypatch.setattr(BundleMetricField, "inverse", counted_inverse)
        for name in ("volume_coefficients", "adapted_total_rule",
                     "hat_weight"):
            def counted(*args, original=getattr(bg, name), name=name,
                        **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(bg, name, counted)
        return counts

    def test_density_route_level_reads_the_tables(self, monkeypatch):
        # the bundle metric is inverted at the sample points only: once
        # for the direct density there, once for the dual-point projector
        cfg = parse_config_text(TINY_EXPANSION)
        tables, _ = suites.sweep_tables(cfg)
        nodes = tables.direct.rule.points.shape[0]
        counts = self.count_level_work(monkeypatch)
        rows = suites.density_route_job(cfg, 5, tables)
        assert rows[0]["passed"] and rows[1]["passed"]
        assert counts["inverse"] == [cfg.n_points, cfg.n_points]
        assert cfg.n_points != nodes
        assert counts["volume_coefficients"] == 0
        assert counts["adapted_total_rule"] == 0
        assert counts["hat_weight"] == 1  # the sample points'

    def test_balance_level_reads_the_tables(self, monkeypatch):
        cfg = parse_config_text(TINY_BALANCE.replace("n_radial = 10",
                                                     "n_radial = 6"))
        tables, _ = suites.sweep_tables(cfg)
        counts = self.count_level_work(monkeypatch)
        res = suites.balance_job(cfg, 3, tables)
        assert res["converged"]
        assert counts == {"inverse": [], "volume_coefficients": 0,
                          "adapted_total_rule": 0, "hat_weight": 0}

    @pytest.mark.parametrize("command, text, rules", [
        ("verify", TINY_EXPANSION, 1),
        ("expansion", TINY_EXPANSION, 2),
        ("balance", TINY_BALANCE.replace("k_max = 4", "k_max = 3"), 1),
    ], ids=["verify", "expansion", "balance"])
    def test_one_direct_table_per_sweep(self, tmp_path, monkeypatch,
                                        command, text, rules):
        # one table per rule: the routes' adapted total rule, and for
        # expansion the variance's rule, raised by one degree
        original = bg.direct_table
        calls = []

        def counting(metric, kahler, model, rule):
            calls.append(rule.points.shape[0])
            return original(metric, kahler, model, rule)

        monkeypatch.setattr(bg, "direct_table", counting)
        path = write_config(tmp_path, text)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == len(set(calls)) == rules

    def test_expansion_level_reads_the_tables(self, monkeypatch):
        # the variance's raised-degree rule is the sweep's table too: a
        # level builds no rule, no volume coefficients and no hat weight,
        # and inverts the bundle metric nowhere
        cfg = parse_config_text(TINY_EXPANSION)
        tables, _ = suites.sweep_tables(cfg)
        tables = tables._replace(variance=suites.variance_table(cfg))
        counts = self.count_level_work(monkeypatch)
        res = suites.expansion_job(cfg, 5, tables)
        assert res["rho_variance"] > 0.0
        assert counts == {"inverse": [], "volume_coefficients": 0,
                          "adapted_total_rule": 0, "hat_weight": 0}


class TestAdaptedFiberSelfCheck:
    """`verify`, `expansion` and `balance` run their model's adapted fiber
    rule through one self-check per sweep and report its estimate as an
    informational row; a trip stops the run with exit 2 before any level
    and names its cause."""

    @pytest.mark.parametrize("run", ["verify_run", "expansion_run",
                                     "balance_run"])
    def test_one_informational_row(self, request, run):
        _, out = request.getfixturevalue(run)
        rows = [row for row in load_report(out)["checks"]
                if row["name"] == "adapted-fiber-degree"]
        assert len(rows) == 1
        assert rows[0]["passed"] is None and rows[0]["k"] is None
        assert 0.0 <= rows[0]["value"] <= 1e-12
        assert "integrand degree 2" in rows[0]["detail"]

    @pytest.mark.parametrize("command, text", [
        ("verify", TINY_EXPANSION),
        ("expansion", TINY_EXPANSION),
        ("balance", TINY_BALANCE.replace("k_max = 4", "k_max = 3")),
    ], ids=["verify", "expansion", "balance"])
    def test_once_per_sweep(self, tmp_path, monkeypatch, command, text):
        original = bg.adapted_fiber_check
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bg, "adapted_fiber_check", counting)
        path = write_config(tmp_path, text)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_trip_exits_two_and_names_the_cause(self, tmp_path, monkeypatch,
                                                capsys):
        # one angle per fiber coordinate cannot integrate the frequency-one
        # off-diagonal pairing to zero
        monkeypatch.setattr(bg, "adapted_fiber_degree", lambda model: 0)
        levels = []
        monkeypatch.setattr(suites, "density_route_job",
                            lambda *args, **kwargs: levels.append(1))
        path = write_config(tmp_path, TINY_EXPANSION)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical guard: adapted fiber rule on p1-sum(0, 1)-k4" in err
        assert "from 1 to 3 angles per fiber coordinate" in err
        assert "trigonometric polynomials of degree 0" in err
        assert levels == []
        assert not (out / "report.json").exists()

    def test_balance_checks_before_its_levels(self, tmp_path, monkeypatch,
                                              capsys):
        def trip(*args, **kwargs):
            raise NumericalGuardError("adapted fiber rule tripped")

        monkeypatch.setattr(bg, "adapted_fiber_check", trip)
        levels = []
        monkeypatch.setattr(suites, "balance_job",
                            lambda *args, **kwargs: levels.append(1))
        path = write_config(tmp_path, TINY_BALANCE)
        out = tmp_path / "out"
        assert cli.main(["balance", "--config", path, "--out", str(out)]) == 2
        assert "numerical guard: adapted fiber rule tripped" \
            in capsys.readouterr().err
        assert levels == []
        assert not (out / "report.json").exists()

    def test_radial_trip_exits_two_and_names_the_counts(
            self, tmp_path, monkeypatch, capsys):
        # degree 0 in t gives one radial node, which cannot integrate the
        # model's degree-2 fiber integrands
        monkeypatch.setattr(bg, "adapted_fiber_radial_degree",
                            lambda model: max(0, model.m + model.r - 3))
        path = write_config(tmp_path, TINY_EXPANSION)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical guard: adapted fiber rule on p1-sum(0, 1)-k4" in err
        assert "from 1 to 3 radial nodes" in err
        assert "polynomials of degree 0 in t" in err
        assert not (out / "report.json").exists()


class TestTorusRuleHealth:
    """`balance` and `moment-spectrum` balance torus states on
    `balancing.torus_orbit_rule`, one node per torus orbit: each level
    records that rule's node count, and `moment-spectrum` levels take
    their normal-action operator on it too.  The self-check is one
    informational row per sweep, at its lowest level."""

    BALANCE_KEYS = {
        "k", "count", "nodes", "converged", "diverged",
        "iterations", "fallback_steps", "trajectory", "final_norm_op",
        "initial_norm_op", "d_value", "volume", "ref_norm_op", "ref_d",
        "ref_volume", "trace_abs", "rho_mass", "rho_variance", "rho_max_dev",
        "comparable", "comparable_c_a", "comparable_min_ratio",
        "gram_condition", "ref_gram_condition"}
    SPECTRUM_KEYS = {
        "k", "nodes", "lambda_z", "smallest_eig", "kernel_dim",
        "dimension", "samples", "sectors", "largest_sector", "converged",
        "iterations", "fallback_steps", "final_norm_op", "gram_condition"}

    def test_levels_record_the_gram_condition(self, balance_run, tmp_path):
        # the balanced Gram of O(k) on P^1, and of O(k) x O(1) on
        # P^1 x P^1, is diag(1 / C(k, beta)) up to scale, so its condition
        # number is the central binomial C(k, floor(k / 2)); the direct
        # route's Gram is balanced already on these homogeneous models
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out)]) == 0
        for report in (load_report(balance_run[1]), load_report(out)):
            for level in report["results"]["levels"]:
                want = math.comb(level["k"], level["k"] // 2)
                assert level["gram_condition"] == pytest.approx(
                    want, rel=1e-6, abs=0.0)
                if "ref_gram_condition" in level:
                    assert level["ref_gram_condition"] == pytest.approx(
                        want, rel=1e-12, abs=0.0)

    def test_balance_levels_record_the_rule(self, balance_run):
        _, out = balance_run
        report = load_report(out)
        for level in report["results"]["levels"]:
            assert set(level) == self.BALANCE_KEYS
            # P^1 x P^1 at n_radial 10: one angle per coordinate
            assert level["nodes"] == 10 * 10
        rows = [row for row in report["checks"]
                if row["name"] == "torus-rule-degree"]
        assert [row["k"] for row in rows] == [2]
        for row in rows:
            assert row["passed"] is None
            assert 0.0 <= row["value"] <= 1e-13
            assert "moment matrix" in row["detail"]
            # the orbit rule against 2 D + 3 and 5 angles, D = k
            assert (f"from 1 to {2 * row['k'] + 3} angles per base "
                    "coordinate and from 1 to 5 per fiber coordinate"
                    in row["detail"])

    def test_spectrum_levels_record_the_rule(self, tmp_path):
        path = write_config(tmp_path, TINY_SPECTRUM)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out)]) == 0
        report = load_report(out)
        for level in report["results"]["levels"]:
            assert set(level) == self.SPECTRUM_KEYS
            # P^1 at n_radial 8: no fiber, and the operator's samples are
            # the valid orbit nodes
            assert level["nodes"] == level["samples"] == 8
            # O(k) on P^1: one block per charge -k..k, the largest the
            # charge-0 block of the N = k + 1 diagonal pairs, so the
            # level's largest eigvalsh is N x N, not N^2 - 1
            assert level["sectors"] == 2 * level["k"] + 1
            assert level["largest_sector"] == level["k"] + 1
        rows = [row for row in report["checks"]
                if row["name"] == "torus-rule-degree"]
        assert len(rows) == 1 and rows[0]["k"] == 1
        assert rows[0]["passed"] is None
        assert 0.0 <= rows[0]["value"] <= 1e-13
        # the orbit rule against 2 D + 3 angles, D = k
        assert "from 1 to 5 angles per base coordinate" in rows[0]["detail"]
        assert "D = 1" in rows[0]["detail"]

    def test_trip_exits_two_and_names_the_cause(self, tmp_path, monkeypatch,
                                                capsys):
        # one sector holding every pair sums the operator's
        # nonzero-character entries at angle 0 instead of dropping them
        monkeypatch.setattr(bal, "_charge_sectors",
                            lambda basis: [np.arange(basis.count ** 2)])
        text = TINY_SPECTRUM.replace("k_min = 1", "k_min = 2").replace(
            "k_max = 3", "k_max = 4")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["moment-spectrum", "--config", path,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical guard: torus rule on p1-sum(0,)-k2" in err
        assert "from 1 to 7 angles per base coordinate" in err
        assert "D = 2" in err
        assert not (out / "report.json").exists()


class TestQuadratureRows:
    def test_verify_certifies_one_chart_on_a_line_base(self, verify_run):
        _, out = verify_run
        rows = [row for row in load_report(out)["checks"]
                if row["name"] == "quadrature-moments"]
        assert len(rows) == 1 and rows[0]["passed"] is True

    @pytest.mark.parametrize("text, count", [
        ("[model]\nkind = p1-sum\ndegrees = 0,1\n", 1),
        ("[model]\nkind = pm-trivial\nbase_dim = 2\nrank = 2\n", 2),
        ("[model]\nkind = pm-trivial\nbase_dim = 1\nrank = 3\n", 2),
    ], ids=["p1-sum", "pm-trivial-base-2", "pm-trivial-fiber-2"])
    def test_dimension_two_row_only_where_a_chart_has_it(self, text, count):
        model = build_model(parse_config_text(text))
        rows = suites.quadrature_rows(model, n_radial=4)
        assert len(rows) == count
        assert rows[0]["passed"] is True
        assert all(row["passed"] is None for row in rows[1:])

    def test_row_reports_the_tolerance_it_is_judged_against(
            self, monkeypatch):
        from projbalance import quadrature
        model = build_model(parse_config_text(
            "[model]\nkind = p1-sum\ndegrees = 0,1\n"))
        row = suites.quadrature_rows(model, n_radial=4)[0]
        assert row["tolerance"] == quadrature._MOMENT_TOL
        error = row["error"]
        assert error > 0.0
        for tol, verdict in ((0.5 * error, False), (2.0 * error, True)):
            monkeypatch.setattr(quadrature, "_MOMENT_TOL", tol)
            row = suites.quadrature_rows(model, n_radial=4)[0]
            assert row["tolerance"] == tol
            assert row["passed"] is verdict


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
        result = suites.spectrum_job(cfg, 2)
        assert calls == [{"tol": cfg.balance_tol,
                          "max_iter": suites._MAX_ITER}]
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
