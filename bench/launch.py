"""Run one projbalance CLI command in this process and stamp its phases.

    python3 bench/launch.py STAMP [--trace DUMP] [--setup-only] -- ARGS...

ARGS are the CLI's own arguments (subcommand first).  The library is
imported from the `src` directory next to this one.  Every subcommand
runner of `projbalance.cli` is wrapped so that its entry, the first job,
is stamped; the end stamp is taken when `cli.main` returns, after the
report and the tables are written.  STAMP receives

    {"start": first job, "end": tables written, "exit": exit code}

on `time.monotonic()`, a clock shared by every process of the machine, so
the parent can subtract its own launch time.

--setup-only stops at the first job and exits 0: a set-up probe.
--trace installs `layers` wrappers and writes the spans and counts to
DUMP after the end stamp, outside the timed interval.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SetupDone(Exception):
    pass


def _stamped(runner, stamp, tracer, setup_only):
    def run(*args, **kwargs):
        stamp["start"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        if tracer is not None:
            tracer.open("run")  # closed by main once the tables are written
        return runner(*args, **kwargs)
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("stamp")
    parser.add_argument("--trace", metavar="DUMP")
    parser.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("the CLI arguments follow --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    sys.path.insert(0, SRC)
    import projbalance
    from projbalance import cli

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer, projbalance)
    stamp = {}
    for command, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[command] = _stamped(runner, stamp, tracer,
                                         args.setup_only)
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    stamp["end"] = time.monotonic()
    stamp["exit"] = code
    if tracer is not None and "start" in stamp:
        tracer.finish()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.stamp, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
