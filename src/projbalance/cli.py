"""Command line for the verification runs.

Four subcommands drive the suites in `projbalance.suites` and write their
results through `projbalance.reports`:

    verify           invariant checks: volume constants, fiber averages,
                     metric round trip, density cross-route, joint
                     linearization
    balance          per-level balance sweep with trajectories and
                     bookkeeping checks
    expansion        level sweep, expansion fit, first-correction tables
    moment-spectrum  balanced normal-action spectra along a level sweep

This module schedules jobs, collects rows, and writes files; every number
it reports is computed inside the library modules.  Exit codes: 0 all
checks passed, 1 at least one check failed, 2 a numerical guard tripped
(quadrature budget or conditioning) or memory ran out, 3 bad config.
"""

import argparse
import dataclasses
import functools
import logging
import sys
import time

from . import reports, suites
from .config import (
    build_model,
    default_config,
    parse_config,
    validate_config,
)
from .errors import ConfigError, NumericalGuardError

logger = logging.getLogger(__name__)

__all__ = ["build_parser", "main"]

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

_EPILOG = """\
configuration file (every key optional; defaults depend on the subcommand):

  [model]   kind (point | p1-sum | pm-trivial), degrees, rank, base_dim
  [sweep]   k_min, k_max, n_points
  [quadrature]  n_radial (radial nodes of the base, plain and torus
            rules; the adapted fiber rule's angles are sized by its
            integrands' degree, and the orbit rule has one angle per
            coordinate)
  [solver]  balance_tol (balancing runs damped Newton steps on the
            torus state's log weights)
  [output]  out_dir, seed

outputs (under --out, or the configured out_dir):

  report.json     schema 1; byte-identical across reruns of the same
                  configuration and seed except for the timestamp field;
                  balance and moment-spectrum levels record the solver
                  iterations and fallback_steps (Newton steps that
                  were halved), the nodes of the orbit rule they
                  balance on, which moment-spectrum's
                  normal-action operator runs on too (its samples are
                  the valid orbit nodes), and gram_condition, the solved
                  Gram's condition number (balance adds
                  ref_gram_condition, the direct route's Gram's)
  timings.json    wall-clock seconds, kept out of report.json:
                  run_seconds (the whole run), command, levels (per
                  level: job_seconds, and solve_seconds for balance) and
                  phases: for verify volume-constants, quadrature,
                  round-trip, fiber-averages, sweep-tables and
                  joint-linearization; for expansion off a point base
                  and for balance, sweep-tables (both density routes'
                  tables, built once before the levels and shared by
                  them, with the self-check of the adapted fiber rule,
                  and for expansion the table of its variance rule)
  checks.csv      name,k,value,reference,error,tolerance,passed,detail

subcommand tables:

  balance:         balance.csv      k,converged,diverged,iterations,
                                    final_norm_op,initial_norm_op,
                                    ref_norm_op,d_value,volume,count,
                                    trace_abs,rho_mass,rho_variance,
                                    rho_max_dev,comparable
                   trajectory_k{K}.csv  iteration,norm_op,norm_fro
  expansion:       a1_table.csv     point,row,col,fitted_re,fitted_im,
                                    closed_re,closed_im,level_avg_re,
                                    level_avg_im
                   density.csv      k,sections,mass,volume,rho_mean,
                                    rho_variance,rho_max_dev
  moment-spectrum: spectrum.csv     k,lambda_z,smallest_eig,kernel_dim,
                                    dimension,samples,converged,
                                    final_norm_op

exit codes: 0 passed, 1 check failed, 2 guard or out of memory, 3 bad config
"""


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 3), not the generic
    argparse exit."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _ArgumentParser(
        prog="projbalance",
        description="verification runs for balanced embeddings and "
                    "level expansions on projectivized model bundles",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify": "invariant checks across the library",
        "balance": "balance a level sweep and record trajectories",
        "expansion": "fit the level expansion and tabulate corrections",
        "moment-spectrum": "normal-action spectra of balanced levels",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(
            name, help=text, description=text, epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="configuration file (built-in defaults "
                              "when omitted)")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (overrides out_dir)")
        cmd.add_argument("--workers", metavar="N", type=int, default=1,
                         help="parallel per-level jobs (default 1)")
        cmd.add_argument("--seed", metavar="S", type=int, default=None,
                         help="seed override")
        cmd.add_argument("--log-level", metavar="LEVEL", type=str.upper,
                         default="WARNING", choices=_LOG_LEVELS,
                         help="projbalance log level: "
                              + ", ".join(_LOG_LEVELS)
                              + " (default WARNING; INFO logs one line per "
                                "finished level)")
    return parser


def _load_config(args):
    if args.config is not None:
        cfg = parse_config(args.config)
    else:
        cfg = default_config(args.command)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        validate_config(cfg)
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return cfg


def _timed(fn, *args):
    """fn(*args) and the wall-clock seconds it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _cell(value):
    """One CSV cell: booleans as true/false, floats by repr (round-trip
    exact), anything else as written."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return value


def _table(filename, header, records):
    """A CSV table whose rows are the header's fields of each record."""
    return filename, header, [[_cell(rec[c]) for c in header]
                              for rec in records]


def _level_fields(per_level, *dropped):
    """The level results that report.json records: each job's result
    without the `dropped` keys, which hold timings, rows or arrays."""
    return [{key: value for key, value in res.items() if key not in dropped}
            for res in per_level]


class _LevelMemoryError(MemoryError):
    """A level job's `MemoryError`, with the level `k`; its arguments are
    its fields, so it crosses the process pool intact."""

    def __init__(self, k, message):
        super().__init__(k, message)
        self.k, self.message = k, message

    def __str__(self):
        return self.message


def _level_job(fn, cfg, k):
    """`_timed(fn, cfg, k)`, re-raising a `MemoryError` with its level."""
    try:
        return _timed(fn, cfg, k)
    except MemoryError as exc:
        raise _LevelMemoryError(k, str(exc)) from exc


def _run_jobs(fn, cfg, ks, workers):
    """Run one job per level, in parallel when asked.  Results come back
    in level order either way, so reports do not depend on scheduling.
    Also returns the timings of each level, {str(k): {"job_seconds": s}},
    measured in the process that ran the job.  A level that runs out of
    memory raises `_LevelMemoryError`, naming it."""
    if workers <= 1 or len(ks) <= 1:
        timed = [_level_job(fn, cfg, k) for k in ks]
    else:
        # imported only here: a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(ks))) as pool:
            futures = [pool.submit(_level_job, fn, cfg, k) for k in ks]
            timed = [f.result() for f in futures]
    levels = {str(k): {"job_seconds": seconds}
              for k, (_, seconds) in zip(ks, timed)}
    return [result for result, _ in timed], levels


def _run_verify(cfg, workers):
    checks = []
    phases = {}

    def phase(name, fn, *args):
        rows, phases[name] = _timed(fn, *args)
        checks.extend(rows)

    phase("volume-constants", suites.volume_constant_rows)
    phase("quadrature", suites.quadrature_rows, build_model(cfg),
          cfg.n_radial)
    phase("round-trip", suites.round_trip_rows, cfg.seed)
    phase("fiber-averages", suites.fiber_average_rows)
    (tables, fiber_row), phases["sweep-tables"] = _timed(
        suites.sweep_tables, cfg)
    per_level, levels = _run_jobs(
        functools.partial(suites.density_route_job, tables=tables), cfg,
        cfg.ks, workers)
    for rows in per_level:
        checks.extend(rows)
    phase("joint-linearization", suites.joint_linearization_rows, cfg.seed)
    checks.append(fiber_row)
    results = {"levels": list(cfg.ks)}
    return checks, results, [], {"phases": phases, "levels": levels}


def _run_balance(cfg, workers):
    (tables, fiber_row), seconds = _timed(suites.sweep_tables, cfg)
    job = functools.partial(suites.balance_job, tables=tables)
    per_level, levels = _run_jobs(job, cfg, cfg.ks, workers)
    for res in per_level:
        levels[str(res["k"])]["solve_seconds"] = res["wall_time"]
    checks = suites.balance_rows(cfg, per_level)
    checks.append(suites.almost_balanced_row(cfg, per_level))
    checks.append(fiber_row)
    csvs = [(f"trajectory_k{res['k']}.csv",
             ["iteration", "norm_op", "norm_fro"],
             [[_cell(v) for v in row] for row in res["trajectory"]])
            for res in per_level]
    csvs.append(_table(
        "balance.csv",
        ["k", "converged", "diverged", "iterations", "final_norm_op",
         "initial_norm_op", "ref_norm_op", "d_value", "volume", "count",
         "trace_abs", "rho_mass", "rho_variance", "rho_max_dev",
         "comparable"],
        per_level))
    results = {"levels": _level_fields(per_level, "wall_time", "torus_row")}
    return checks, results, csvs, {
        "phases": {"sweep-tables": seconds}, "levels": levels}


def _run_expansion(cfg, workers):
    if len(cfg.ks) < 3 and cfg.kind != "point":
        raise ConfigError(
            f"expansion needs at least three levels, got "
            f"{cfg.k_min}..{cfg.k_max}")
    timings = {}
    if cfg.kind == "point":
        per_level, levels = _run_jobs(suites.degenerate_expansion_job, cfg,
                                      cfg.ks, workers)
        checks = suites.degenerate_expansion_rows(per_level)
        table = []
    else:
        t0 = time.perf_counter()
        tables, fiber_row = suites.sweep_tables(cfg)
        tables = tables._replace(variance=suites.variance_table(cfg))
        timings["phases"] = {"sweep-tables": time.perf_counter() - t0}
        per_level, levels = _run_jobs(
            functools.partial(suites.expansion_job, tables=tables),
            cfg, cfg.ks, workers)
        checks, table = suites.expansion_assemble(cfg, per_level)
        checks.append(fiber_row)
    csvs = []
    if table:
        csvs.append(("a1_table.csv",
                     ["point", "row", "col", "fitted_re", "fitted_im",
                      "closed_re", "closed_im", "level_avg_re",
                      "level_avg_im"],
                     [[_cell(v) for v in row] for row in table]))
    csvs.append(_table(
        "density.csv",
        ["k", "sections", "mass", "volume", "rho_mean", "rho_variance",
         "rho_max_dev"],
        per_level))
    results = {"levels": _level_fields(per_level, "vals")}
    return checks, results, csvs, {**timings, "levels": levels}


def _run_spectrum(cfg, workers):
    if len(cfg.ks) < 3:
        raise ConfigError(
            f"moment-spectrum needs at least three levels, got "
            f"{cfg.k_min}..{cfg.k_max}")
    per_level, levels = _run_jobs(suites.spectrum_job, cfg, cfg.ks, workers)
    checks, exponent = suites.spectrum_assemble(cfg, per_level)
    csvs = [_table(
        "spectrum.csv",
        ["k", "lambda_z", "smallest_eig", "kernel_dim", "dimension",
         "samples", "converged", "final_norm_op"],
        per_level)]
    results = {"levels": _level_fields(per_level, "torus_row"),
               "exponent": exponent}
    return checks, results, csvs, {"levels": levels}


_RUNNERS = {
    "verify": _run_verify,
    "balance": _run_balance,
    "expansion": _run_expansion,
    "moment-spectrum": _run_spectrum,
}


def _repro(command, args, cfg):
    parts = [f"projbalance {command}"]
    if args.config is not None:
        parts.append(f"--config {args.config}")
    parts.append(f"--seed {cfg.seed}")
    if args.out is not None:
        parts.append(f"--out {args.out}")
    return " ".join(parts)


def main(argv=None):
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    logging.getLogger(__package__).setLevel(args.log_level)

    t0 = time.perf_counter()
    try:
        checks, results, csvs, timings = _RUNNERS[args.command](
            cfg, args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        where = (f" at k={exc.k}" if isinstance(exc, _LevelMemoryError)
                 else "")
        print(f"out of memory{where}: {exc}; lower [sweep] k_max or "
              f"[quadrature] n_radial", file=sys.stderr)
        return 2
    run_time = time.perf_counter() - t0

    report = reports.build_report(args.command, cfg, checks, results,
                                  repro=_repro(args.command, args, cfg))
    timings.update(run_seconds=run_time, command=args.command)
    path = reports.write_report(report, cfg.out_dir, timings=timings)
    reports.write_csv(cfg.out_dir, "checks.csv",
                      ["name", "k", "value", "reference", "error",
                       "tolerance", "passed", "detail"],
                      reports.checks_csv_rows(checks))
    for filename, header, rows in csvs:
        reports.write_csv(cfg.out_dir, filename, header, rows)

    judged = [row for row in checks if row["passed"] is not None]
    failed = [row for row in judged if row["passed"] is False]
    for row in failed:
        where = f" (k={row['k']})" if row["k"] is not None else ""
        print(f"FAIL {row['name']}{where}: error {row['error']:.3e} "
              f"> tolerance {row['tolerance']:.3e}", file=sys.stderr)
    print(f"{args.command}: {len(judged) - len(failed)}/{len(judged)} "
          f"checks passed, report at {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
