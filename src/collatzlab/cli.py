"""Command-line front end: pair sweeps, condition coverage, orbits and the
per-case lambda grid search. Each command returns its exit code and report
text, written by render.py in text, JSON or CSV, and main writes the report
once: to --output, else to the file named by COLLATZLAB_OUTPUT, else stdout.

Exit codes: 0 success/verified, 1 findings (violations or an orbit that ran
out of cap), 2 usage error, 3 arithmetic width overflow. JSON and CSV output
is byte-identical across runs and any --jobs value: rationals render as
"p/q" strings, integers beyond 53-bit magnitude as decimal strings, and
timings are redacted unless --timings is given.

Every verify mode reads whole cell regions, at O(cells x period) cost plus
the rows that flag, so verify takes any side; conditions and search-lambda
still walk every pair and keep the desk-scale gate (--allow-large).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .arith import (  # noqa: F401 - perfbench/tracing.py wraps format_rational
    OverflowLimitError,
    format_rational,
    parse_rational,
)
from .collatz import DEFAULT_CAP, stopping_time
from .framework import ConditionId, ConditionParams, LambdaSpec
from .verifier import (
    DEFAULT_SEARCH_BUDGET,
    RangeSpec,
    condition_coverage,
    cross_check_simplified,
    m_bound_sweep,
    orbit_decay_sweep,
    search_lambda,
    verify_pseudocontraction,
    verify_simplified,
)
from .weights import CASE_BY_LABEL, CASE_ORDER, case_lambda

if __name__ == "__main__":
    # run as `python -m collatzlab.cli`: render reads format_rational on
    # collatzlab.cli, which is then this module, not a second copy of it
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])

from . import render  # noqa: E402 - after the alias above

DESK_SCALE_MAX = 10_000

ENV_OUTPUT = "COLLATZLAB_OUTPUT"


class UsageError(ValueError):
    pass


def _parse_lambda(text: str) -> LambdaSpec:
    """Constant "p/q", or a per-case table "even-even:1/2,odd-odd:1,*:0"
    where '*' supplies the value for unlisted cases."""
    s = text.strip()
    if ":" not in s:
        try:
            return LambdaSpec.const(parse_rational(s))
        except ValueError as e:
            raise UsageError(f"bad lambda spec: {e}") from None
    table = {}
    default = None
    for item in s.split(","):
        name, sep, val = item.partition(":")
        name = name.strip()
        if not sep:
            raise UsageError(f"bad lambda entry {item!r}, expected case:value")
        try:
            rat = parse_rational(val)
        except ValueError as e:
            raise UsageError(f"bad lambda value in {item!r}: {e}") from None
        if name == "*":
            if default is not None:
                raise UsageError("duplicate '*' entry in lambda spec")
            default = rat
            continue
        case = CASE_BY_LABEL.get(name)
        if case is None:
            raise UsageError(f"unknown parity case {name!r} in lambda spec")
        if case in table:
            raise UsageError(f"duplicate case {name!r} in lambda spec")
        table[case] = rat
    if default is not None:
        for case in CASE_ORDER:
            table.setdefault(case, default)
    missing = [c.label for c in CASE_ORDER if c not in table]
    if missing:
        raise UsageError(
            f"lambda spec leaves cases unset ({', '.join(missing)}); "
            "list them or add a '*:value' entry")
    try:
        return case_lambda(table)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _build_range(args, desk_scale: bool = True) -> RangeSpec:
    """The pair range of --min, --max and --case. With desk_scale, a side
    past DESK_SCALE_MAX needs --allow-large: the sweep's cost grows with the
    number of pairs."""
    if args.max < 1:
        raise UsageError(f"--max must be >= 1, got {args.max}")
    if args.min < 1 or args.min > args.max:
        raise UsageError("need 1 <= --min <= --max")
    side = args.max - args.min + 1
    if desk_scale and side > DESK_SCALE_MAX and not args.allow_large:
        raise UsageError(
            f"range side {side} (--max - --min + 1) exceeds the desk-scale "
            f"default {DESK_SCALE_MAX}; pass --allow-large to confirm")
    for name in args.case or ():
        if name not in CASE_BY_LABEL:
            raise UsageError(f"unknown parity case {name!r}")
    try:
        return RangeSpec(args.min, args.max, args.min, args.max,
                         frozenset(map(CASE_BY_LABEL.get, args.case))
                         if args.case else None)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _progress_printer(args):
    if not args.progress:
        return None
    def cb(done: int) -> None:
        print(f"  ...{done} checks", file=sys.stderr, flush=True)
    return cb


# --- subcommands --------------------------------------------------------------
# Each returns (exit code, report text); main writes the report.

def cmd_verify(args) -> tuple[int, str]:
    # every mode costs O(cells x period) plus the rows it walks, whatever
    # the side
    rng = _build_range(args, desk_scale=False)
    # --M is checked in every mode, though only mbound reads it
    try:
        m_cap = parse_rational(args.M)
    except ValueError as e:
        raise UsageError(str(e)) from None
    kwargs = dict(max_violations=max(0, args.violations_cap),
                  progress=_progress_printer(args))
    if args.mode == "mbound":
        report = m_bound_sweep(rng, m_cap, **kwargs)
    elif args.mode == "simplified":
        report = verify_simplified(rng, **kwargs)
    elif args.mode == "cross":
        report = cross_check_simplified(rng, **kwargs)
    else:
        report = verify_pseudocontraction(rng, bounds=args.mode == "bounds",
                                          **kwargs)
    return render.verification(args, "verify", report)


def _condition_id(args) -> ConditionId:
    try:
        return ConditionId(args.theorem, args.condition)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _condition_params(args, b: Optional[str] = None,
                      m: Optional[str] = None) -> ConditionParams:
    """--lambda and --A, with B and M parsed from the given texts."""
    lam = _parse_lambda(getattr(args, "lambda"))
    try:
        return ConditionParams(lam, parse_rational(args.A),
                               parse_rational(b) if b is not None else None,
                               parse_rational(m) if m is not None else None)
    except ValueError as e:
        raise UsageError(str(e)) from None


def cmd_conditions(args) -> tuple[int, str]:
    kind = _condition_id(args)
    params = _condition_params(args, args.B, args.M)
    rng = _build_range(args)
    report = condition_coverage(rng, params, kind,
                                corrected_c4=args.corrected_c4,
                                m_lambda=args.m_lambda,
                                progress=_progress_printer(args))
    return 0, render.coverage(args, report)


def cmd_orbit(args) -> tuple[int, str]:
    if args.seed < 1:
        raise UsageError(f"--seed must be >= 1, got {args.seed}")
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    record = stopping_time(args.map, args.seed, args.cap, keep_path=args.path)
    return 0 if record.steps is not None else 1, render.orbit(args, record)


def cmd_search(args) -> tuple[int, str]:
    kind = _condition_id(args)
    rng = _build_range(args)
    try:
        a_grid = [parse_rational(part) for part in args.A.split(",") if part.strip()]
        result = search_lambda(rng, args.q, a_grid, kind,
                               B=parse_rational(args.B), M=parse_rational(args.M),
                               budget=args.budget,
                               corrected_c4=args.corrected_c4,
                               progress=_progress_printer(args))
    except ValueError as e:
        raise UsageError(str(e)) from None
    if result.budget_exhausted:
        print("note: search budget exhausted; each case group kept only its "
              "top candidates, which hold the best assignment", file=sys.stderr)
    return 0, render.search(args, result)


def cmd_decay(args) -> tuple[int, str]:
    params = _condition_params(args)
    if args.seed_max < args.seed_min or args.seed_min < 1:
        raise UsageError("need 1 <= --seed-min <= --seed-max")
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    report = orbit_decay_sweep(args.seed_min, args.seed_max, params,
                               dedup=not args.full_orbits,
                               telescoped=not args.no_telescoped,
                               cap=args.cap,
                               max_violations=max(0, args.violations_cap),
                               progress=_progress_printer(args))
    return render.verification(args, "decay", report)


# --- parser --------------------------------------------------------------------

def _add_output(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", default=None,
                     help=f"write the report here (default stdout, env {ENV_OUTPUT})")


def _add_sweep(sub, with_range=True):
    """--format, --output, --timings, --progress and the pair range."""
    _add_output(sub)
    sub.add_argument("--timings", action="store_true",
                     help="include elapsed_ms in JSON/CSV (breaks byte-for-byte "
                          "reproducibility)")
    sub.add_argument("--progress", action="store_true",
                     help="print progress to stderr")
    if with_range:
        sub.add_argument("--max", type=int, required=True,
                         help="upper bound for both coordinates")
        sub.add_argument("--min", type=int, default=1)
        sub.add_argument("--case", action="append", default=None,
                         metavar="LABEL",
                         help="restrict to a parity case (repeatable), e.g. "
                              "even-even")
        sub.add_argument("--allow-large", action="store_true",
                         help=f"permit --max - --min + 1 beyond "
                              f"{DESK_SCALE_MAX} (accepted by verify, which "
                              f"needs none)")


def _add_lambda_args(sub):
    sub.add_argument("--lambda", default="0", dest="lambda",
                     help='blend spec: a rational like "0", "1", "1/2", or a '
                          'per-case table "even-even:1/2,*:0"')
    sub.add_argument("--A", required=True, help="ratio cap in (0,1), e.g. 1/2")


def _add_condition_args(sub):
    """The condition system's options other than --lambda and --A."""
    sub.add_argument("--B", default="2", help="branch sum lower bound (family 3)")
    sub.add_argument("--M", default="2", help="weight magnitude cap (family 3)")
    sub.add_argument("--theorem", type=int, choices=(1, 2, 3), default=3)
    sub.add_argument("--condition", type=int, choices=(1, 2, 3, 4, 5), default=5)
    sub.add_argument("--corrected-c4", action="store_true",
                     help="use the symmetric variant of condition 4's second "
                          "clause instead of the form as printed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzlab",
        description="Exact-arithmetic verification of the six-weight "
                    "contraction inequality on the Collatz maps.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("verify", help="pair sweeps of the weighted inequality")
    _add_sweep(p)
    p.add_argument("--mode", choices=("direct", "simplified", "cross",
                                      "bounds", "mbound"), default="direct")
    p.add_argument("--M", default="2", help="cap for --mode mbound")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: every sweep runs in one "
                        "thread, and reports do not depend on it")
    p.add_argument("--violations-cap", type=int, default=100,
                   help="max violations recorded and shown; the true total "
                        "is always reported")
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("conditions", help="condition coverage map over a range")
    _add_sweep(p)
    _add_lambda_args(p)
    _add_condition_args(p)
    p.add_argument("--m-lambda", action="store_true",
                   help="also cap the blended weights by M")
    p.set_defaults(fn=cmd_conditions)

    p = subs.add_parser("orbit", help="trajectory and stopping time of one seed")
    _add_output(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--map", choices=("C", "T"), default="T")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--path", action="store_true", help="include the full path")
    p.set_defaults(fn=cmd_orbit)

    p = subs.add_parser("search-lambda",
                        help="grid-search per-case lambda assignments")
    _add_sweep(p)
    p.add_argument("--q", type=int, default=1,
                   help="lambda grid denominator; values are 0, 1/q, ..., 1")
    p.add_argument("--A", required=True,
                   help="comma-separated A grid, e.g. 1/2 or 1/4,1/2,3/4")
    _add_condition_args(p)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(fn=cmd_search)

    p = subs.add_parser("decay", help="orbit decay sweep over a seed range; "
                                      "the premise is always the family-1 "
                                      "condition (5)")
    _add_sweep(p, with_range=False)
    _add_lambda_args(p)
    p.add_argument("--seed-min", type=int, default=1)
    p.add_argument("--seed-max", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--full-orbits", action="store_true",
                   help="walk every orbit fully instead of stopping below the "
                        "seed")
    p.add_argument("--no-telescoped", action="store_true")
    p.add_argument("--violations-cap", type=int, default=100,
                   help="max violations recorded and shown")
    p.set_defaults(fn=cmd_decay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first main() call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its report: the one writer of every report."""
    args = _parser().parse_args(argv)
    try:
        code, report = args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowLimitError as e:
        print(f"overflow: {e}", file=sys.stderr)
        return 3
    # environment defaults are read per call; explicit options win
    path = os.environ.get(ENV_OUTPUT) if args.output is None else args.output
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
