"""Command-line front end for running verification campaigns.

Exit codes: 0 when every check passes, 1 when any verification fails,
2 for usage errors (argparse follows the same convention), 141 when the
reader closes stdout early (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .campaign import ALL_IDS, FORMATS, VerifyConfig, run_verify, write_report
from .polynomials import scalar_str

USAGE_EXIT = 2
BROKEN_PIPE_EXIT = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernkit",
        description="Verify Bernstein basis-function identities, generating-function "
        "equations, and certified series numerically and symbolically.",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=VerifyConfig.max_degree,
        help="largest basis degree to sweep (default %(default)s)",
    )
    parser.add_argument(
        "--egf-order",
        type=int,
        default=VerifyConfig.egf_order,
        help="truncation order for generating-function checks (default %(default)s)",
    )
    parser.add_argument(
        "--identities",
        default=None,
        metavar="A,B,C",
        help="comma-separated subset of check ids (default: all; see --list-identities)",
    )
    parser.add_argument(
        "--series-eps",
        default=scalar_str(VerifyConfig.series_eps),
        metavar="EPS",
        help="target tail bound for series checks, parsed exactly (default %(default)s)",
    )
    parser.add_argument("--format", choices=FORMATS, default=VerifyConfig.format)
    parser.add_argument("--seed", type=int, default=VerifyConfig.seed, help="seed for randomized basis checks")
    parser.add_argument("--list-identities", action="store_true", help="print check ids and exit")
    parser.add_argument("--mutate", metavar="ID", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_identities:
        print("\n".join(ALL_IDS))
        return 0
    try:
        eps = Fraction(args.series_eps)
    except (ValueError, ZeroDivisionError):
        print(f"error: cannot parse --series-eps value {args.series_eps!r}", file=sys.stderr)
        return USAGE_EXIT
    identities = None
    if args.identities is not None:
        identities = tuple(s for s in (t.strip() for t in args.identities.split(",")) if s)
    config = VerifyConfig(
        max_degree=args.max_degree,
        egf_order=args.egf_order,
        identities=identities,
        series_eps=eps,
        format=args.format,
        seed=args.seed,
    )
    try:
        config.validate(args.mutate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    report = run_verify(config, mutate=args.mutate)
    write_report(report, sys.stdout)
    return report.exit_status


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`bernkit --list-identities | head -5`).  Point
        # stdout at devnull so the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = BROKEN_PIPE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    entry()
