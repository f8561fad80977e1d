"""Run reports: one deterministic JSON document plus CSV tables.

`report.json` carries everything a rerun needs to be compared against:
schema version, the canonical configuration echo, library versions, the
full check matrix, and the per-level results.  Identical configuration and
seed produce byte-identical JSON except for the `timestamp` field; wall
clock measurements therefore live in a separate `timings.json`, never in
the report itself.
"""

import csv
import datetime
import json
import logging
import math
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .config import serialize_config

logger = logging.getLogger(__name__)

__all__ = ["build_report", "write_report", "write_csv", "checks_csv_rows",
           "report_passed"]

SCHEMA_VERSION = 1


def _versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "projbalance": __version__,
    }


def report_passed(checks):
    """True when no check row failed; informational rows (passed=None)
    never count."""
    return all(row["passed"] is not False for row in checks)


def build_report(command, cfg, checks, results, repro):
    """Assemble the report document.

    `repro` is the command line that reproduces this run; it is attached
    to every failed check row so a failure in a long sweep can be replayed
    directly."""
    failures = []
    rows = []
    for row in checks:
        row = dict(row)
        if row["passed"] is False:
            row["repro"] = repro
            failures.append({"name": row["name"], "k": row["k"],
                             "repro": repro})
        rows.append(row)
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": serialize_config(cfg),
        "seed": cfg.seed,
        "versions": _versions(),
        "checks": rows,
        "results": results,
        "passed": report_passed(checks),
        "failures": failures,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }


def _json_safe(obj):
    """Strict JSON has no Infinity or NaN literals; map them to null.  The
    CSV tables keep the repr'd values, so nothing is lost on disk."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def write_report(report, out_dir, timings=None):
    """Write report.json (sorted keys, so equal content means equal bytes)
    and, when given, timings.json next to it.  Returns the report path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    if timings is not None:
        with open(out / "timings.json", "w", encoding="utf-8") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
            fh.write("\n")
    logger.info("report written to %s", path)
    return path


def write_csv(out_dir, filename, header, rows):
    """Write one CSV table with a fixed documented header."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / filename
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def checks_csv_rows(checks):
    """The check matrix flattened to the fixed checks.csv columns."""
    rows = []
    for row in checks:
        rows.append([
            row["name"],
            "" if row["k"] is None else row["k"],
            "" if row["value"] is None else repr(float(row["value"])),
            "" if row["reference"] is None else repr(float(row["reference"])),
            "" if row["error"] is None else repr(float(row["error"])),
            "" if row["tolerance"] is None else repr(float(row["tolerance"])),
            "" if row["passed"] is None else str(row["passed"]).lower(),
            row["detail"],
        ])
    return rows
