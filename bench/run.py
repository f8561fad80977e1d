"""Benchmark of the projbalance command line.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload

Each round is one fresh CLI process (`launch.py`) with `--workers 1` and
the workload's seed.  With `--trace 0` a run makes set-up probes and then
whole rounds until the next one would end past `--seconds` (at least one),
and reports the medians of the end-to-end metrics:

    run_s        first job until report and tables are written
    setup_s      process launch until the first job (probes and rounds)
    cpu_s        user + system CPU time of the round process
    peak_rss_mb  peak resident memory of the round process

With `--trace 1` a run makes one untraced and one traced round and reports
the per-layer metrics of `layers.PER_LAYER`, with `trace.overhead_s` the
traced run_s minus the untraced one.

Every round's outputs are checked (`workloads.py`).  An operation is one
judged check row of the round's report.json or one of the benchmark's own
checks; a round that exits with another code than 0 or 1 fails all of its
operations.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
RUNS = os.path.join(HERE, "runs")

SETUP_PROBES = 7
ROUND_LIMIT_S = 150.0  # a round past this is killed and fails


@dataclass
class Round:
    exit: int
    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    wall_s: float
    report: dict
    trace: dict


def _launch(workload, seed, round_dir, *, trace=False, setup_only=False):
    os.makedirs(round_dir)
    config = os.path.join(round_dir, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.config)
    stamp_path = os.path.join(round_dir, "stamp.json")
    dump_path = os.path.join(round_dir, "trace.json")
    out = os.path.join(round_dir, "out")
    argv = [sys.executable, LAUNCH, stamp_path]
    if trace:
        argv += ["--trace", dump_path]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--", workload.command, "--config", config, "--out", out,
             "--workers", "1", "--seed", str(seed)]
    with open(os.path.join(round_dir, "log.txt"), "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(ROUND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t_launch

    def load(path):
        if not os.path.exists(path):
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    stamp = load(stamp_path)
    return Round(
        exit=proc.returncode,
        setup_s=stamp["start"] - t_launch if "start" in stamp else None,
        run_s=stamp["end"] - stamp["start"] if "start" in stamp else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        wall_s=wall,
        report=load(os.path.join(out, "report.json")),
        trace=load(dump_path))


def _judge(workload, rnd, traced):
    """(attempted, failed, wrong) for one round: `wrong` counts operations
    that completed with a value outside its check, as opposed to a round
    that crashed."""
    crashed = rnd.exit not in (0, 1)
    report = {} if crashed else rnd.report
    levels = rnd.trace.get("levels", {}) if traced else None
    checks = workload.checks(report, levels)
    rows = workload.judged_rows(report)
    attempted = workload.judged + len(checks)
    if crashed:
        return attempted, attempted, 0
    bad = [c.label for c in checks if not c.passes]
    bad += [f"row {r['name']} k={r['k']}" for r in rows if not r["passed"]]
    missing = max(0, workload.judged - len(rows))
    for label in bad:
        print(f"  check failed: {label}", file=sys.stderr)
    return attempted, len(bad) + missing, len(bad)


class Runner:
    """Rounds of one benchmark run, their directories and their tally."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.base = os.path.join(RUNS, f"{workload.name}-{os.getpid()}")
        self._n = 0

    def round(self, *, trace=False, setup_only=False):
        self._n += 1
        round_dir = os.path.join(self.base, f"{self._n:03d}")
        rnd = _launch(self.workload, self.seed, round_dir, trace=trace,
                      setup_only=setup_only)
        if not setup_only:
            attempted, failed, wrong = _judge(self.workload, rnd, trace)
            self.attempted += attempted
            self.failed += failed
            self.wrong += wrong
        if rnd.exit != 0:
            with open(os.path.join(round_dir, "log.txt")) as log:
                sys.stderr.write(f"round exited {rnd.exit}:\n{log.read()}")
        if trace and rnd.trace:
            shutil.copy(os.path.join(round_dir, "trace.json"),
                        os.path.join(RUNS, f"trace-{self.workload.name}.json"))
        shutil.rmtree(round_dir)
        return rnd

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


def _median(values):
    return statistics.median(v for v in values if v is not None)


def measure(workload, seed, seconds):
    """End-to-end metrics: set-up probes, then whole rounds for `seconds`."""
    runner = Runner(workload, seed)
    try:
        setups = [runner.round(setup_only=True).setup_s
                  for _ in range(SETUP_PROBES)]
        rounds = []
        t0 = time.monotonic()
        while True:
            rounds.append(runner.round())
            elapsed = time.monotonic() - t0
            if elapsed + max(r.wall_s for r in rounds) > seconds:
                break
    finally:
        runner.close()
    if all(r.run_s is None for r in rounds):
        return runner, None
    metrics = {
        "run_s": (_median(r.run_s for r in rounds), "s"),
        "setup_s": (_median(setups + [r.setup_s for r in rounds]), "s"),
        "cpu_s": (_median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (_median(r.peak_rss_mb for r in rounds), "MiB"),
    }
    return runner, {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}


def trace(workload, seed):
    """Per-layer metrics of one traced round, against one untraced round."""
    runner = Runner(workload, seed)
    try:
        plain = runner.round()
        traced = runner.round(trace=True)
    finally:
        runner.close()
    if not traced.trace or plain.run_s is None or traced.run_s is None:
        return runner, None
    return runner, layers.layer_metrics(traced.trace, traced.run_s,
                                        plain.run_s)


def run_workload(workload, seed, seconds, traced):
    runner, metrics = (trace(workload, seed) if traced
                       else measure(workload, seed, seconds))
    if metrics is None:
        print(f"{workload.name}: no round reached its end stamp",
              file=sys.stderr)
        return None
    for name, entry in metrics.items():
        print(f"{workload.name} {name} {entry['value']!r} {entry['unit']}")
    print(f"{workload.name} operations attempted {runner.attempted} "
          f"failed {runner.failed}")
    return {"correct": runner.wrong == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="projbalance CLI benchmark; see bench/README.md")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "projbalance", "cli.py")):
        print(f"no projbalance sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**31  # the CLI takes nonnegative seeds
    os.makedirs(RUNS, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        result = run_workload(WORKLOADS[name], seed, args.seconds,
                              bool(args.trace))
        if result is None:
            code = 1
        else:
            print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
