"""Command-line front end: pair sweeps, condition coverage, orbits and the
per-case lambda grid search. Each command returns its exit code and report
text, written in text, JSON or CSV by render.py (verify, decay) or
writers.py (the other commands), and main writes the report once: to
--output, else to the file named by COLLATZLAB_OUTPUT, else stdout.

Exit codes: 0 success/verified, 1 findings (violations or an orbit that ran
out of cap), 2 usage error, 3 arithmetic width overflow. JSON and CSV output
is byte-identical across runs and any --jobs value: rationals render as
"p/q" strings, integers beyond 53-bit magnitude as decimal strings, and
timings are redacted unless --timings is given.

Each subcommand's options are declared once, in options.py. main reads
argv off that table (options.decode) into the namespace the argparse
parser built from it would return; an argv the table reader declines
(help, a usage error, a prefix or --opt=value form, a value starting
with "-") goes to argparse, which is imported only then, so help, usage
errors and their exit code 2 are argparse's own.

Every verify mode reads whole cell regions, at O(cells x period) cost plus
the rows that flag, so verify takes any side and has no --progress;
conditions and search-lambda still walk every pair and keep the desk-scale
gate (--allow-large), and they and decay, which walks seeds, print
--progress lines to stderr.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Optional

from .arith import (  # noqa: F401 - perfbench/tracing.py wraps format_rational
    OverflowLimitError,
    format_rational,
    parse_rational,
)
from .collatz import stopping_time
from .framework import ConditionId, ConditionParams, LambdaSpec
from .verifier import (
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

from . import options, render  # noqa: E402 - after the alias above
from .options import DESK_SCALE_MAX, ENV_OUTPUT  # noqa: E402


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
    if m_cap < 0:
        raise UsageError(f"--M must be >= 0, got {args.M}")
    kwargs = dict(max_violations=max(0, args.violations_cap))
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
    from . import writers
    return 0, writers.coverage(args, report)


def cmd_orbit(args) -> tuple[int, str]:
    if args.seed < 1:
        raise UsageError(f"--seed must be >= 1, got {args.seed}")
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    record = stopping_time(args.map, args.seed, args.cap, keep_path=args.path)
    from . import writers
    return 0 if record.steps is not None else 1, writers.orbit(args, record)


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
    from . import writers
    return 0, writers.search(args, result)


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


# --- argv ----------------------------------------------------------------------

COMMANDS = {"verify": cmd_verify, "conditions": cmd_conditions,
            "orbit": cmd_orbit, "search-lambda": cmd_search,
            "decay": cmd_decay}


def build_parser():
    """The full argparse parser of every subcommand (options.SUBCOMMANDS)."""
    return options.build_parser(COMMANDS)


@functools.cache
def _parser():
    """The one argparse parser of this process, built by the first argv
    that the table reader declines."""
    return build_parser()


def _parse_args(argv: list):
    """An argv the table reader declines, read by argparse, which writes
    help and usage errors and exits."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command and write its report: the one writer of every report."""
    if argv is None:
        argv = sys.argv[1:]
    args = options.decode(argv, COMMANDS)
    if args is None:
        args = _parse_args(argv)
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
