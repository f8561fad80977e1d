"""tools/report_diff.py on two small synthetic run directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _run_dir(root, name, *, value, detail="fine", out="runs/a",
             stamp="2026-01-01T00:00:00"):
    d = root / name
    d.mkdir()
    report = {
        "command": "verify",
        "config": f"[output]\nout_dir = {out}\nseed = 1\n",
        "checks": [
            {"name": "density-mass", "k": 3, "value": value,
             "passed": False, "detail": detail,
             "repro": f"projbalance verify --seed 1 --out {out}"},
            {"name": "volume", "k": 3, "value": 2.0, "passed": True,
             "detail": "closed form"},
        ],
        "failures": [{"name": "density-mass", "k": 3,
                      "repro": f"projbalance verify --seed 1 --out {out}"}],
        "timestamp": stamp,
    }
    (d / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (d / "checks.csv").write_text(
        f"name,k,value,passed\ndensity-mass,3,{value!r},false\n",
        encoding="utf-8")
    (d / "timings.json").write_text(json.dumps({"run_seconds": stamp}),
                                    encoding="utf-8")
    return d


def test_only_numbers_moved(tmp_path, capsys):
    old = _run_dir(tmp_path, "old", value=8.0)
    new = _run_dir(tmp_path, "new", value=8.5, out="elsewhere/b",
                   stamp="2026-02-02T00:00:00")
    assert report_diff.main([str(old), str(new)]) == 0
    # timings.json is wall clock and is not compared
    assert capsys.readouterr().out.splitlines() == [
        "checks.csv: 2 numbers, 1 moved, max abs 0.5 (rows[1][2]), "
        "max rel 0.0588 (rows[1][2]), max rel above 1e-10 0.0588 "
        "(rows[1][2])",
        "report.json: 5 numbers, 1 moved, max abs 0.5 (checks[0].value), "
        "max rel 0.0588 (checks[0].value), max rel above 1e-10 0.0588 "
        "(checks[0].value)",
    ]


def test_identical_runs_move_nothing(tmp_path, capsys):
    old = _run_dir(tmp_path, "old", value=9.0)
    new = _run_dir(tmp_path, "new", value=9.0)
    assert report_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checks.csv: 2 numbers, 0 moved", "report.json: 5 numbers, 0 moved"]


@pytest.mark.parametrize("change", ["detail", "seed", "file"])
def test_a_non_numeric_difference_exits_1(tmp_path, capsys, change):
    old = _run_dir(tmp_path, "old", value=9.0)
    new = _run_dir(tmp_path, "new", value=9.0,
                   detail="changed" if change == "detail" else "fine")
    if change == "seed":
        report = json.loads((new / "report.json").read_text())
        report["failures"][0]["repro"] = "projbalance verify --seed 2"
        (new / "report.json").write_text(json.dumps(report))
    if change == "file":
        (new / "checks.csv").unlink()
    assert report_diff.main([str(old), str(new)]) == 1
    assert "differs:" in capsys.readouterr().out


def test_check_rows_pair_by_name_level_and_detail(tmp_path, capsys):
    # the new run drops the first check row: every other row keeps its
    # partner, so the one dropped row is the only difference reported
    rows = [{"name": "quadrature-moments", "k": None, "value": 1e-15,
             "passed": True, "detail": "dimension 2"},
            {"name": "density-mass", "k": 3, "value": 8.0, "passed": True,
             "detail": "mass"},
            {"name": "density-mass", "k": 4, "value": 9.0, "passed": True,
             "detail": "mass"}]
    dirs = []
    for name, checks in (("old", rows), ("new", rows[1:])):
        d = tmp_path / name
        d.mkdir()
        (d / "report.json").write_text(
            json.dumps({"command": "verify", "checks": checks}),
            encoding="utf-8")
        lines = ["name,k,value,detail"] + [
            f"{row['name']},{'' if row['k'] is None else row['k']},"
            f"{row['value']!r},{row['detail']}" for row in checks]
        (d / "checks.csv").write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
        dirs.append(str(d))
    assert report_diff.main(dirs) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "checks.csv: 4 numbers, 0 moved",
        "  differs: rows: row ('quadrature-moments', '', 'dimension 2') on "
        "the old side only",
        "report.json: 4 numbers, 0 moved",
        "  differs: checks: row ('quadrature-moments', None, 'dimension 2') "
        "on the old side only",
    ]


def test_a_check_list_against_other_entries_pairs_by_position(tmp_path,
                                                              capsys):
    # keyed pairing needs check rows on both sides; otherwise the list
    # is compared by position and its length difference reported
    dirs = []
    for name, checks in (("old", [{"name": "volume", "k": 3, "value": 2.0,
                                   "detail": "closed form"}]),
                         ("new", [2.0, 3.0])):
        d = tmp_path / name
        d.mkdir()
        (d / "report.json").write_text(json.dumps({"checks": checks}),
                                       encoding="utf-8")
        dirs.append(str(d))
    assert report_diff.main(dirs) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  differs: checks: 1 entries -> 2" in out


def test_a_check_row_longer_than_its_header_differs(tmp_path, capsys):
    dirs = []
    for name, extra in (("old", ""), ("new", ",surplus")):
        d = tmp_path / name
        d.mkdir()
        (d / "checks.csv").write_text(
            f"name,k,value,detail\nvolume,3,2.0,closed form{extra}\n",
            encoding="utf-8")
        dirs.append(str(d))
    assert report_diff.main(dirs) == 1
    assert capsys.readouterr().out.splitlines() == [
        "checks.csv: 2 numbers, 0 moved",
        "  differs: rows: line 2 on the new side has 5 fields, the header 4",
    ]


def test_a_row_with_a_new_detail_pairs_by_name_and_level(tmp_path, capsys):
    # the one torus-rule-degree row at k = 4 changes its detail and its
    # value: the pair is kept, the detail change printed and the value
    # compared; the density-mass rows share (name, k), so a changed
    # detail there leaves a row on each side
    dirs = []
    for name, detail, value, mass in (("old", "from 11 to 13", 1e-16, "b"),
                                      ("new", "from 1 to 13", 3e-16, "c")):
        d = tmp_path / name
        d.mkdir()
        checks = [{"name": "torus-rule-degree", "k": 4, "value": value,
                   "passed": None, "detail": detail},
                  {"name": "density-mass", "k": 4, "value": 8.0,
                   "passed": True, "detail": "mass a"},
                  {"name": "density-mass", "k": 4, "value": 9.0,
                   "passed": True, "detail": f"mass {mass}"}]
        (d / "report.json").write_text(json.dumps({"checks": checks}),
                                       encoding="utf-8")
        dirs.append(str(d))
    assert report_diff.main(dirs) == 1
    assert capsys.readouterr().out.splitlines() == [
        "report.json: 4 numbers, 1 moved, max abs 2e-16 (checks[0].value), "
        "max rel 0.667 (checks[0].value), max rel above 1e-10 0",
        "  differs: checks[0].detail: 'from 11 to 13' -> 'from 1 to 13'",
        "  differs: checks: row ('density-mass', 4, 'mass b') on the old "
        "side only",
        "  differs: checks: row ('density-mass', 4, 'mass c') on the new "
        "side only",
    ]


def test_numbers_at_roundoff_leave_the_floored_column(tmp_path, capsys):
    # a check error 0 -> 5e-15 and a norm 5e-16 -> 6.1e-16 read large raw
    # relative moves; the floored column sees only the order-1 value, and
    # a number below the floor on one side only stays out of it as well
    dirs = []
    for name, error, norm, value, small in (
            ("old", 0.0, 5.0e-16, 3.0, 1e-11),
            ("new", 5.0e-15, 6.1e-16, 3.0 + 3e-15, 2e-10)):
        d = tmp_path / name
        d.mkdir()
        (d / "report.json").write_text(json.dumps(
            {"error": error, "norm": norm, "value": value, "small": small}),
            encoding="utf-8")
        dirs.append(str(d))
    assert report_diff.main(dirs) == 0
    assert capsys.readouterr().out.splitlines() == [
        "report.json: 4 numbers, 4 moved, max abs 1.9e-10 (small), "
        "max rel 1 (error), max rel above 1e-10 1.04e-15 (value)",
    ]
