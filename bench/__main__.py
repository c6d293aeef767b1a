"""Command line: ``python -m bench run ...`` and ``python -m bench compare``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import WORKLOADS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="run workloads; the last stdout line is a JSON summary")
    run.add_argument("--workload", choices=WORKLOADS, default=None,
                     help="one workload (default: all, one after another)")
    run.add_argument("--seed", type=int, default=1,
                     help="input seed (1 and 2 are checked against "
                          "bench/reference/)")
    run.add_argument("--seconds", type=float, default=30.0,
                     help="measuring time per workload (default 30)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="1: add profiled passes and report the per-layer "
                          "breakdown instead of the end-to-end metrics")
    run.add_argument("--out", type=Path,
                     default=Path(__file__).resolve().parent / "results",
                     help="directory the JSON result is written to")
    run.add_argument("--update-reference", action="store_true",
                     help="rewrite bench/reference/ for this seed from "
                          "this run's first pass")
    compare = commands.add_parser(
        "compare", help="judge run results in B/ against those in A/")
    compare.add_argument("before", type=Path)
    compare.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import compare as judge

        return judge(args.before, args.after)
    from .driver import run as drive

    workloads = (args.workload,) if args.workload else WORKLOADS
    return drive(workloads, args.seed, args.seconds, bool(args.trace),
                 args.out, args.update_reference)


if __name__ == "__main__":
    sys.exit(main())
