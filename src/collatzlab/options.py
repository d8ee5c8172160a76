"""The options of every subcommand, declared once as data (SUBCOMMANDS),
and the two readers of an argv that share them.

build_parser makes argparse's parser from the table, in the table's order
and with its help text; it alone writes help and usage errors, with their
exit code 2. decode reads an argv straight off the table, and returns the
namespace that parser would return, where it can tell that the parser
would accept the argv and read it so; it declines every other argv (None),
which then goes to argparse. It declines:
- a first token that names no subcommand;
- a token that is not one of the subcommand's option strings exactly: a
  prefix, the --opt=value form, "--", "-h" or a positional;
- a value that is missing or empty or starts with "-";
- a value that its type or choices reject, or a missing required option.
argparse is imported only by build_parser, so a process whose every argv
decodes never loads it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .collatz import DEFAULT_CAP
from .coverage import DEFAULT_SEARCH_BUDGET

DESK_SCALE_MAX = 10_000

ENV_OUTPUT = "COLLATZLAB_OUTPUT"

PROG = "collatzlab"
DESCRIPTION = ("Exact-arithmetic verification of the six-weight contraction "
               "inequality on the Collatz maps.")

# option kinds: a store_true flag, a repeatable value, a value
FLAG, APPEND, VALUE = "flag", "append", "value"


class Option(NamedTuple):
    """One option of a subcommand, as argparse's add_argument takes it."""

    flag: str
    dest: str
    kind: str
    type: Optional[Callable] = None
    default: object = None
    choices: Optional[tuple] = None
    required: bool = False
    help: Optional[str] = None
    metavar: Optional[str] = None


def _value(flag: str, **fields) -> Option:
    return Option(flag, flag[2:].replace("-", "_"), VALUE, **fields)


def _flag(flag: str, help: Optional[str] = None) -> Option:
    return Option(flag, flag[2:].replace("-", "_"), FLAG, default=False,
                  help=help)


_OUTPUT = (
    _value("--format", choices=("text", "json", "csv"), default="text"),
    _value("--output",
           help=f"write the report here (default stdout, env {ENV_OUTPUT})"),
)

_TIMINGS = _flag("--timings", "include elapsed_ms in JSON/CSV (breaks "
                              "byte-for-byte reproducibility)")

_SWEEP = _OUTPUT + (_TIMINGS, _flag("--progress", "print progress to stderr"))

_RANGE = (
    _value("--max", type=int, required=True,
           help="upper bound for both coordinates"),
    _value("--min", type=int, default=1),
    Option("--case", "case", APPEND, metavar="LABEL",
           help="restrict to a parity case (repeatable), e.g. even-even"),
    _flag("--allow-large", f"permit --max - --min + 1 beyond {DESK_SCALE_MAX} "
                           f"(accepted by verify, which needs none)"),
)

_LAMBDA = (
    _value("--lambda", default="0",
           help='blend spec: a rational like "0", "1", "1/2", or a per-case '
                'table "even-even:1/2,*:0"'),
    _value("--A", required=True, help="ratio cap in (0,1), e.g. 1/2"),
)

# the condition system's options other than --lambda and --A
_CONDITION = (
    _value("--B", default="2", help="branch sum lower bound (family 3)"),
    _value("--M", default="2", help="weight magnitude cap (family 3)"),
    _value("--theorem", type=int, choices=(1, 2, 3), default=3),
    _value("--condition", type=int, choices=(1, 2, 3, 4, 5), default=5),
    _flag("--corrected-c4", "use the symmetric variant of condition 4's "
                            "second clause instead of the form as printed"),
)

# subcommand -> (help, options in add_argument order)
SUBCOMMANDS = {
    "verify": ("pair sweeps of the weighted inequality",
               _OUTPUT + (_TIMINGS,) + _RANGE + (
        _value("--mode", choices=("direct", "simplified", "cross", "bounds",
                                  "mbound"), default="direct"),
        _value("--M", default="2", help="cap for --mode mbound"),
        _value("--jobs", type=int, default=1,
               help="accepted and ignored: every sweep runs in one thread, "
                    "and reports do not depend on it"),
        _value("--violations-cap", type=int, default=100,
               help="max violations recorded and shown; the true total is "
                    "always reported"),
    )),
    "conditions": ("condition coverage map over a range",
                   _SWEEP + _RANGE + _LAMBDA + _CONDITION + (
        _flag("--m-lambda", "also cap the blended weights by M"),
    )),
    "orbit": ("trajectory and stopping time of one seed", _OUTPUT + (
        _value("--seed", type=int, required=True),
        _value("--map", choices=("C", "T"), default="T"),
        _value("--cap", type=int, default=DEFAULT_CAP),
        _flag("--path", "include the full path"),
    )),
    "search-lambda": ("grid-search per-case lambda assignments",
                      _SWEEP + _RANGE + (
        _value("--q", type=int, default=1,
               help="lambda grid denominator; values are 0, 1/q, ..., 1"),
        _value("--A", required=True,
               help="comma-separated A grid, e.g. 1/2 or 1/4,1/2,3/4"),
    ) + _CONDITION + (
        _value("--budget", type=int, default=DEFAULT_SEARCH_BUDGET),
    )),
    "decay": ("orbit decay sweep over a seed range; the premise is always "
              "the family-1 condition (5)", _SWEEP + _LAMBDA + (
        _value("--seed-min", type=int, default=1),
        _value("--seed-max", type=int, required=True),
        _value("--cap", type=int, default=DEFAULT_CAP),
        _flag("--full-orbits", "walk every orbit fully instead of stopping "
                               "below the seed"),
        _flag("--no-telescoped"),
        _value("--violations-cap", type=int, default=100,
               help="max violations recorded and shown"),
    )),
}


def build_parser(commands: dict):
    """argparse's parser of every subcommand in SUBCOMMANDS, each with its
    function from commands as the default of fn."""
    import argparse

    parser = argparse.ArgumentParser(prog=PROG, description=DESCRIPTION)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help, options) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help)
        for opt in options:
            if opt.kind == FLAG:
                sub.add_argument(opt.flag, dest=opt.dest, action="store_true",
                                 help=opt.help)
                continue
            sub.add_argument(opt.flag, dest=opt.dest,
                             action="append" if opt.kind == APPEND else "store",
                             type=opt.type, default=opt.default,
                             choices=opt.choices, required=opt.required,
                             help=opt.help, metavar=opt.metavar)
        sub.set_defaults(fn=commands[name])
    return parser


_MISSING = object()


def _decoding(options: tuple) -> tuple:
    """(option string -> (dest, kind, type, choices), the namespace before
    any option, required dests) of a subcommand; a required option starts
    _MISSING. Defaults are taken as declared: argparse would pass a string
    default through the option's type, and no option has both."""
    by_flag = {opt.flag: (opt.dest, opt.kind, opt.type, opt.choices)
               for opt in options}
    start = {opt.dest: _MISSING if opt.required else opt.default
             for opt in options}
    return by_flag, start, tuple(opt.dest for opt in options if opt.required)


_DECODING = {name: _decoding(options)
             for name, (_, options) in SUBCOMMANDS.items()}


def decode(argv, commands: dict) -> Optional[SimpleNamespace]:
    """The namespace build_parser(commands).parse_args(argv) returns, read
    off the table, or None where argv is one this reader declines (see the
    module docstring)."""
    decoding = _DECODING.get(argv[0]) if argv else None
    if decoding is None:
        return None
    by_flag, start, required = decoding
    ns = start.copy()
    tokens = iter(argv)
    next(tokens)
    for token in tokens:
        option = by_flag.get(token)
        if option is None:
            return None
        dest, kind, convert, choices = option
        if kind == FLAG:
            ns[dest] = True
            continue
        value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        ns[dest] = [*(ns[dest] or ()), value] if kind == APPEND else value
    for dest in required:
        if ns[dest] is _MISSING:
            return None
    ns["fn"] = commands[argv[0]]
    ns["subcommand"] = argv[0]
    return SimpleNamespace(**ns)
