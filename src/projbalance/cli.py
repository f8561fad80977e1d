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
(quadrature budget or conditioning), 3 configuration error.
"""

import argparse
import dataclasses
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import reports, suites
from .config import default_config, parse_config
from .errors import ConfigError, NumericalGuardError

logger = logging.getLogger(__name__)

__all__ = ["build_parser", "main"]

_EPILOG = """\
configuration file (every key optional; defaults depend on the subcommand):

  [model]   kind (point | p1-sum | pm-trivial), degrees, rank, base_dim
  [sweep]   k_min, k_max, n_points
  [quadrature]  n_radial
  [solver]  method (t-iteration | gradient-flow), balance_tol, max_iter,
            flow_step
  [checks]  rho_tol, a1_rel_tol, order_q, r_bound, d_tol
  [output]  out_dir, seed

outputs (under --out, or the configured out_dir):

  report.json     schema 1; byte-identical across reruns of the same
                  configuration and seed except for the timestamp field
  timings.json    run_seconds (wall clock of the whole run) and command,
                  kept out of report.json
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

exit codes: 0 passed, 1 check failed, 2 numerical guard, 3 bad config
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
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return cfg


def _run_jobs(fn, cfg, ks, workers):
    """Run one job per level, in parallel when asked.  Results come back
    in level order either way, so reports do not depend on scheduling."""
    if workers <= 1 or len(ks) <= 1:
        return [fn(cfg, k) for k in ks]
    with ProcessPoolExecutor(max_workers=min(workers, len(ks))) as pool:
        futures = [pool.submit(fn, cfg, k) for k in ks]
        return [f.result() for f in futures]


def _run_verify(cfg, workers):
    checks = []
    checks.extend(suites.volume_constant_rows())
    checks.extend(suites.quadrature_rows(cfg.n_radial))
    checks.extend(suites.round_trip_rows(cfg.seed))
    checks.extend(suites.fiber_average_rows(cfg.n_radial))
    for rows in _run_jobs(suites.density_route_job, cfg, cfg.ks, workers):
        checks.extend(rows)
    checks.extend(suites.joint_linearization_rows(cfg.seed))
    results = {"levels": list(cfg.ks)}
    return checks, results, []


def _run_balance(cfg, workers):
    per_level = _run_jobs(suites.balance_job, cfg, cfg.ks, workers)
    checks = suites.balance_rows(cfg, per_level)
    checks.append(suites.almost_balanced_row(cfg, per_level))
    csvs = []
    summary = []
    for res in per_level:
        csvs.append((f"trajectory_k{res['k']}.csv",
                     ["iteration", "norm_op", "norm_fro"],
                     [[i, repr(a), repr(b)] for i, a, b in res["trajectory"]]))
        summary.append([res["k"], str(res["converged"]).lower(),
                        str(res["diverged"]).lower(), res["iterations"],
                        repr(res["final_norm_op"]),
                        repr(res["initial_norm_op"]),
                        repr(res["ref_norm_op"]), repr(res["d_value"]),
                        repr(res["volume"]), res["count"],
                        repr(res["trace_abs"]), repr(res["rho_mass"]),
                        repr(res["rho_variance"]), repr(res["rho_max_dev"]),
                        str(res["comparable"]).lower()])
    csvs.append(("balance.csv",
                 ["k", "converged", "diverged", "iterations",
                  "final_norm_op", "initial_norm_op", "ref_norm_op",
                  "d_value", "volume", "count", "trace_abs", "rho_mass",
                  "rho_variance", "rho_max_dev", "comparable"],
                 summary))
    results = {"levels": [
        {key: value for key, value in res.items() if key != "wall_time"}
        for res in per_level]}
    return checks, results, csvs


def _run_expansion(cfg, workers):
    if len(cfg.ks) < 3 and cfg.kind != "point":
        raise ConfigError(
            f"expansion needs at least three levels, got "
            f"{cfg.k_min}..{cfg.k_max}")
    if cfg.kind == "point":
        per_level = _run_jobs(suites.degenerate_expansion_job, cfg, cfg.ks,
                              workers)
        checks = suites.degenerate_expansion_rows(per_level)
        table = []
    else:
        per_level = _run_jobs(suites.expansion_job, cfg, cfg.ks, workers)
        checks, table = suites.expansion_assemble(cfg, per_level)
    csvs = []
    if table:
        csvs.append(("a1_table.csv",
                     ["point", "row", "col", "fitted_re", "fitted_im",
                      "closed_re", "closed_im", "level_avg_re",
                      "level_avg_im"],
                     [[row[0], row[1], row[2]] + [repr(v) for v in row[3:]]
                      for row in table]))
    csvs.append(("density.csv",
                 ["k", "sections", "mass", "volume", "rho_mean",
                  "rho_variance", "rho_max_dev"],
                 [[res["k"], res["sections"], repr(res["mass"]),
                   repr(res["volume"]), repr(res["rho_mean"]),
                   repr(res["rho_variance"]), repr(res["rho_max_dev"])]
                  for res in per_level]))
    results = {"levels": [
        {key: value for key, value in res.items() if key != "vals"}
        for res in per_level]}
    return checks, results, csvs


def _run_spectrum(cfg, workers):
    if len(cfg.ks) < 3:
        raise ConfigError(
            f"moment-spectrum needs at least three levels, got "
            f"{cfg.k_min}..{cfg.k_max}")
    per_level = _run_jobs(suites.spectrum_job, cfg, cfg.ks, workers)
    checks, exponent = suites.spectrum_assemble(cfg, per_level)
    csvs = [("spectrum.csv",
             ["k", "lambda_z", "smallest_eig", "kernel_dim", "dimension",
              "samples", "converged", "final_norm_op"],
             [[res["k"], repr(res["lambda_z"]), repr(res["smallest_eig"]),
               res["kernel_dim"], res["dimension"], res["samples"],
               str(res["converged"]).lower(), repr(res["final_norm_op"])]
              for res in per_level])]
    results = {"levels": per_level, "exponent": exponent}
    return checks, results, csvs


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
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3

    t0 = time.perf_counter()
    try:
        checks, results, csvs = _RUNNERS[args.command](cfg, args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    run_time = time.perf_counter() - t0

    report = reports.build_report(args.command, cfg, checks, results,
                                  repro=_repro(args.command, args, cfg))
    timings = {"run_seconds": run_time, "command": args.command}
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
