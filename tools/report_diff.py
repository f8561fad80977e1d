"""Compare the numbers of two projbalance run directories.

    python tools/report_diff.py OLD_DIR NEW_DIR

Reads `report.json` and every `*.csv` of both directories (`timings.json`
holds wall-clock times and is skipped) and pairs their values field by
field.  Check rows pair by (name, k, detail), not by position: the
report's `checks` and `failures` lists, and the rows of a CSV table with
`name`, `k` and `detail` columns such as checks.csv, when both sides hold
such rows.  So a row added or dropped on one side is reported once and
leaves the other rows paired; a CSV row whose length differs from the
header is a difference too.  A row whose (name, k) is unique on both
sides pairs by (name, k) when only its detail changed: the detail change
is printed and its value still compared.
For each file it prints how many numbers it compared, how many moved, and
the largest absolute and relative move with the field where it happened;
then the largest relative move among numbers at least `FLOOR` (1e-10) in
magnitude on both sides, since a number at roundoff (0 -> 5e-15, say)
moves by its own size and reads a relative move of 1.
Fields that only echo the run itself are ignored: the report's
`timestamp`, the `out_dir` line of its `config` echo, and the `--out`
argument of each `repro` command line.

Exit status 0 when at most numbers moved, 1 when a non-numeric field
differs, a number turns non-finite on one side only, a file exists on one
side only, or the two files differ in shape; each such difference is
printed.  Exit status 2 on a usage error.  Standard library only.
"""

import csv
import json
import math
import re
import sys
from pathlib import Path

_OUT_ARG = re.compile(r" --out \S+")

# magnitude both sides of a number must reach for its move to count in the
# second relative column
FLOOR = 1e-10


def _normalized(key, value):
    """A string field with its echo of the output path removed."""
    if key == "config":
        return "\n".join(line for line in value.split("\n")
                         if not line.startswith("out_dir"))
    if key == "repro":
        return _OUT_ARG.sub("", value)
    return value


def _number(value):
    """The value as a float when it is a number (a CSV cell that parses as
    one included), else None; booleans are not numbers."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _is_check_list(rows):
    return all(isinstance(row, dict) and "name" in row for row in rows)


def _keyed(rows):
    """Index and row of each check row (a dict, or a CSV row mapped to its
    header) by its (name, k, detail); a key that repeats gets its running
    count appended, so repeated rows pair in order."""
    seen = {}
    keyed = {}
    for i, row in enumerate(rows):
        key = row.get("name"), row.get("k"), row.get("detail")
        seen[key] = seen.get(key, 0) + 1
        keyed[key + (seen[key],)] = (i, row)
    return keyed


def _levels(keyed):
    """The keys of `_keyed` rows grouped by their (name, k)."""
    levels = {}
    for row_key in keyed:
        levels.setdefault(row_key[:2], []).append(row_key)
    return levels


class FileDiff:
    """Moves and non-numeric differences of one pair of files."""

    def __init__(self, name):
        self.name = name
        self.compared = 0
        self.moved = 0
        self.max_abs = (0.0, None)
        self.max_rel = (0.0, None)
        self.max_rel_floored = (0.0, None)
        self.mismatches = []

    def leaf(self, path, old, new, key=None):
        a, b = _number(old), _number(new)
        if a is None or b is None:
            if isinstance(old, str) and isinstance(new, str):
                old, new = _normalized(key, old), _normalized(key, new)
            if old != new:
                self.mismatches.append(f"{path}: {old!r} -> {new!r}")
            return
        self.compared += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.moved += 1
        move = abs(a - b)
        if not math.isfinite(move):
            self.mismatches.append(f"{path}: {old!r} -> {new!r}")
            return
        rel = move / max(abs(a), abs(b))
        if move > self.max_abs[0]:
            self.max_abs = (move, path)
        if rel > self.max_rel[0]:
            self.max_rel = (rel, path)
        if min(abs(a), abs(b)) >= FLOOR and rel > self.max_rel_floored[0]:
            self.max_rel_floored = (rel, path)

    def walk(self, path, old, new, key=None):
        if isinstance(old, dict) and isinstance(new, dict):
            for k in sorted(set(old) | set(new)):
                where = f"{path}.{k}" if path else k
                if k not in old or k not in new:
                    self.mismatches.append(f"{where}: present on one side only")
                elif not (path == "" and k == "timestamp"):
                    self.walk(where, old[k], new[k], k)
        elif (isinstance(old, list) and isinstance(new, list)
              and _is_check_list(old) and _is_check_list(new)):
            self.walk_keyed(path, old, new, key)
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.mismatches.append(
                    f"{path}: {len(old)} entries -> {len(new)}")
            for i, (a, b) in enumerate(zip(old, new)):
                self.walk(f"{path}[{i}]", a, b, key)
        else:
            self.leaf(path, old, new, key)

    def walk_keyed(self, path, old, new, key):
        """Check rows paired by (name, k, detail); a pair is labelled with
        the old row's position, a row on one side only with its key.  A
        row whose (name, k) is unique on both sides pairs with its namesake
        when only the detail differs, which then shows as a difference."""
        old_rows, new_rows = _keyed(old), _keyed(new)
        partner = {row_key: row_key for row_key in old_rows
                   if row_key in new_rows}
        new_levels = _levels(new_rows)
        for level, keys in _levels(old_rows).items():
            theirs = new_levels.get(level, [])
            if len(keys) == 1 and len(theirs) == 1 and keys[0] not in partner:
                partner[keys[0]] = theirs[0]
        paired = set(partner.values())
        for row_key in [*old_rows, *(k for k in new_rows if k not in paired)]:
            if row_key not in partner:
                side = "old" if row_key in old_rows else "new"
                self.mismatches.append(
                    f"{path}: row {row_key[:3]!r} on the {side} side only")
                continue
            i, a = old_rows[row_key]
            self.walk(f"{path}[{i}]", a, new_rows[partner[row_key]][1], key)

    def summary(self):
        line = f"{self.name}: {self.compared} numbers, {self.moved} moved"
        if self.moved:
            line += (f", max abs {self.max_abs[0]:.3g} ({self.max_abs[1]}),"
                     f" max rel {self.max_rel[0]:.3g} ({self.max_rel[1]}),"
                     f" max rel above {FLOOR:g} "
                     f"{self.max_rel_floored[0]:.3g}")
            if self.max_rel_floored[1] is not None:
                line += f" ({self.max_rel_floored[1]})"
        return line


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def diff_file(old_dir, new_dir, name):
    diff = FileDiff(name)
    old_path, new_path = Path(old_dir) / name, Path(new_dir) / name
    if not old_path.is_file() or not new_path.is_file():
        diff.mismatches.append("present on one side only")
    elif name.endswith(".json"):
        diff.walk("", json.loads(old_path.read_text(encoding="utf-8")),
                  json.loads(new_path.read_text(encoding="utf-8")))
    else:
        old, new = _read_csv(old_path), _read_csv(new_path)
        header = old[0] if old and new and old[0] == new[0] else []
        if {"name", "k", "detail"} <= set(header):
            # a table of check rows: pair its rows by key, not by line
            for side, rows in (("old", old), ("new", new)):
                for line, row in enumerate(rows[1:], 2):
                    if len(row) != len(header):
                        diff.mismatches.append(
                            f"rows: line {line} on the {side} side has "
                            f"{len(row)} fields, the header {len(header)}")
            diff.walk("", *({"header": header,
                             "rows": [dict(zip(header, row))
                                      for row in rows[1:]]}
                            for rows in (old, new)))
        else:
            diff.walk("", {"rows": old}, {"rows": new})
    return diff


def diff_dirs(old_dir, new_dir):
    names = {p.name for d in (old_dir, new_dir) for p in Path(d).iterdir()
             if p.name == "report.json" or p.suffix == ".csv"}
    return [diff_file(old_dir, new_dir, name) for name in sorted(names)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old_dir, new_dir = argv
    for d in (old_dir, new_dir):
        if not Path(d).is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    status = 0
    for diff in diff_dirs(old_dir, new_dir):
        print(diff.summary())
        for line in diff.mismatches:
            print(f"  differs: {line}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
