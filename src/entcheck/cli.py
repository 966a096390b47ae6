"""Command line interface.

entcheck analyze --input state.txt [--format dense|sparse] [--method ...]
entcheck gen --product|--random --dims 2,2 [--seed N] [--zero-avoidance]
             [--out-format dense|sparse] [--output PATH]

`--dims` takes the dimensions separated by commas or spaces, by the
rule of a state file's `dims:` header (`io.parse_dims`).

Exit codes: 0 = factorized, 1 = entangled, 2 = error (including parse
failures, bad --dims, a tolerance that is not a finite positive number
or an eps_rank of 1 or more, criterion/oracle disagreement, a forced
method that stays inconclusive, and any exception raised while
analysing, rendering or generating).
ENTCHECK_TOL_MAG overrides the default magnitude tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import io as state_io
from .core import Tolerances
from .oracle import gen_product_state, gen_random_state
from .pipeline import METHODS, analyze, render_report


def _default_tol_mag():
    value = os.environ.get("ENTCHECK_TOL_MAG")
    if value is None:
        return Tolerances.eps_mag
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"ENTCHECK_TOL_MAG is not a number: {value!r}") from None


def _seed(text):
    """A --seed value: numpy's seeding takes non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entcheck",
        description="Decide whether a tensor-product state vector is "
        "factorized or entangled from its expansion coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze a state file")
    an.add_argument("--input", required=True, help="path to the state file")
    an.add_argument("--format", choices=state_io.FORMATS, default="dense")
    an.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="force one criterion instead of auto-escalating",
    )
    an.add_argument("--tol-mag", type=float, default=None, metavar="X")
    an.add_argument("--tol-ang", type=float, default=None, metavar="X")
    an.add_argument("--tol-rank", type=float, default=None, metavar="X")
    an.add_argument(
        "--no-oracle-check",
        action="store_true",
        help="skip the rank-oracle cross-check of conclusive verdicts",
    )
    an.add_argument("--pretty", action="store_true", help="append a human-readable table")

    gen = sub.add_parser("gen", help="generate a random state file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--product", action="store_true", help="product state")
    kind.add_argument("--random", action="store_true", help="i.i.d. random state")
    gen.add_argument("--dims", required=True, help="comma- or space-separated dimensions, e.g. 2,2")
    gen.add_argument("--seed", type=_seed, default=0, metavar="N")
    gen.add_argument(
        "--zero-avoidance",
        action="store_true",
        help="product states only: keep factor entries away from zero",
    )
    gen.add_argument("--out-format", choices=state_io.FORMATS, default="dense")
    gen.add_argument("--output", default=None, help="write to a file instead of stdout")
    return parser


def _cmd_analyze(args) -> int:
    try:
        tol = Tolerances(
            eps_mag=args.tol_mag if args.tol_mag is not None else _default_tol_mag(),
            eps_ang=args.tol_ang if args.tol_ang is not None else Tolerances.eps_ang,
            eps_rank=args.tol_rank if args.tol_rank is not None else Tolerances.eps_rank,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        tensor = state_io.load_state(args.input, args.format)
    except (OSError, ValueError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    report = analyze(
        tensor, tol, method=args.method, oracle_check=not args.no_oracle_check
    )
    sys.stdout.write(render_report(report, pretty=args.pretty))
    return report.exit_code


def _cmd_gen(args) -> int:
    try:
        dims = state_io.parse_dims(args.dims)
    except ValueError as exc:
        print(f"error: --dims: {exc}", file=sys.stderr)
        return 2
    if args.product:
        tensor = gen_product_state(dims, args.seed, zero_avoidance=args.zero_avoidance)
    else:
        tensor = gen_random_state(dims, args.seed)
    if args.output:
        state_io.save_state(tensor, args.output, args.out_format)
    else:
        state_io.dumps(tensor, args.out_format, sys.stdout)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_gen(args)
    except Exception as exc:
        # exit 1 means "entangled": a failure inside the analysis, the
        # report or the generator (MemoryError included) must not read
        # as a verdict.  KeyboardInterrupt is not an Exception.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
