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
        "max rel 0.0588 (rows[1][2])",
        "report.json: 5 numbers, 1 moved, max abs 0.5 (checks[0].value), "
        "max rel 0.0588 (checks[0].value)",
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
