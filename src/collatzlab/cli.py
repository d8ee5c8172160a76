"""Command-line front end: pair sweeps, condition coverage, orbits and the
per-case lambda grid search, with text, JSON and CSV report rendering. Each
command returns its exit code and report text, and main writes the report
once: to --output, else to the file named by COLLATZLAB_OUTPUT, else stdout.

Exit codes: 0 success/verified, 1 findings (violations or an orbit that ran
out of cap), 2 usage error, 3 arithmetic width overflow. JSON and CSV output
is byte-identical across runs and any --jobs value: rationals render as
"p/q" strings, integers beyond 53-bit magnitude as decimal strings, and
timings are redacted unless --timings is given.

JSON reports come from this module's own indent-2 writer (_render_json),
which gives the bytes of json.dumps(..., indent=2, sort_keys=True) without
its pure-Python encoder. Verification reports keep their rows as runs of y
that share every other field (verifier.ViolationRows), and one row writer
(_rows) serves JSON, CSV and text: it builds one line template per run and
formats only y per row, building no Violation row.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from .arith import OverflowLimitError, format_rational, parse_rational
from .collatz import DEFAULT_CAP, stopping_time
from .framework import ConditionId, ConditionParams, LambdaSpec
from .verifier import (
    DEFAULT_SEARCH_BUDGET,
    ConditionCoverageReport,
    LambdaSearchResult,
    RangeSpec,
    VerificationReport,
    ViolationRows,
    condition_coverage,
    cross_check_simplified,
    m_bound_sweep,
    orbit_decay_sweep,
    search_lambda,
    verify_pseudocontraction,
    verify_simplified,
)
from .weights import CASE_BY_LABEL, CASE_ORDER, case_lambda

DESK_SCALE_MAX = 10_000
JSON_INT_LIMIT = 2**53

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
    past DESK_SCALE_MAX needs --allow-large: the sweep's cost grows with it."""
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


# --- exact JSON/CSV encoding -------------------------------------------------

def _leaf(value) -> str:
    """JSON text of a scalar: integers of magnitude >= 2**53 as decimal
    strings and Fractions as "p/q" strings, so that no reader rounds them."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        if -JSON_INT_LIMIT < value < JSON_INT_LIMIT:
            return int.__repr__(value)
        return _quote(str(value))
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, Fraction):
        return _quote(format_rational(value))
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


# --- violation rows ------------------------------------------------------------
# A report keeps its rows as runs (verifier.ViolationRows): per row x, ranges
# of y whose rows share the head (x, case, quantity, value, z). A writer's
# line(x, case, quantity, value, z) gives the texts before and after y once
# per run; joined, with their own % escaped, they make one %-template, and
# each y of the run is formatted into it. A row x whose runs interleave (even
# and odd columns, the column y = 1, several quantities at one y) is put in
# order by an index sort on y (ViolationRows.each).


def _rows(rows: ViolationRows, line: Callable, leaf: bool = False) -> str:
    """The report lines of kept rows, each run's ys formatted into its
    template; with leaf, a run that reaches the JSON integer limit writes
    its ys as _leaf does."""
    def lines(x: int, run: tuple):
        ys, *head = run
        before, after = line(x, *head)
        template = before.replace("%", "%%") + "%s" + after.replace("%", "%%")
        if leaf and ys[-1] >= JSON_INT_LIMIT:
            ys = map(_leaf, ys)
        return map(template.__mod__, ys)
    return "".join(chain.from_iterable(rows.each(lines)))


@functools.cache
def _row_template(nl: str) -> tuple:
    """%-templates of a JSON Violation row whose own line starts with `nl`,
    from the comma before it: its text before y and after y."""
    inner = nl + "  "
    return ("," + nl + "{" + "".join(
        f'{inner}"{name}": %s,' for name in ("case", "quantity", "value", "x"))
        + inner + '"y": ', "," + inner + '"z": %s' + nl + "}")


def _json_rows(rows: ViolationRows, nl: str) -> str:
    """JSON text of a report's kept rows, as _json lays out a list."""
    before, after = _row_template(nl + "  ")

    def line(x, case, quantity, value, z) -> tuple:
        return (before % (_quote(case), _quote(quantity), _leaf(value),
                          _leaf(x)), after % _leaf(z))

    # each row brings its comma; the first has none
    return "[" + _rows(rows, line, leaf=True)[1:] + nl + "]"


def _json(value, nl: str) -> str:
    """JSON text of `value`, whose own line starts with `nl` (a newline and
    its indent): the indent-2, sorted-key layout of json.dumps. A report's
    kept rows are written by the row writer (_json_rows)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        return ("{" + ",".join(inner + _quote(k) + ": " + _json(value[k], inner)
                               for k in sorted(value)) + nl + "}")
    if isinstance(value, (list, tuple, ViolationRows)):
        if not value:
            return "[]"
        if isinstance(value, ViolationRows):
            return _json_rows(value, nl)
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_json(v, inner) for v in value])
                + nl + "]")
    return _leaf(value)


def _cell_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _range_doc(rng: RangeSpec) -> dict:
    doc = {"x_min": rng.x_min, "x_max": rng.x_max,
           "y_min": rng.y_min, "y_max": rng.y_max}
    if rng.cases:
        doc["cases"] = sorted(c.label for c in rng.cases)
    return doc


def _verification_doc(command: str, report: VerificationReport,
                      timings: bool) -> dict:
    return {
        "command": command,
        "engine": report.engine,
        "params": dict(report.params),
        "range": _range_doc(report.rng),
        "pairs_checked": report.pairs_checked,
        "per_case": [
            {"case": key, "pairs": tal.pairs, "max_lhs": tal.max_lhs,
             "bound": tal.bound}
            for key, tal in report.per_case.items()
        ],
        "violations": report.violations,
        "violations_total": report.violations_total,
        "violations_shown": len(report.violations),
        "elapsed_ms": report.elapsed_ms if timings else None,
    }


def _coverage_doc(report: ConditionCoverageReport, timings: bool) -> dict:
    cells = []
    for key, cell in report.cells.items():
        cells.append({
            "cell": key,
            "pairs": cell.pairs,
            "holds_first": cell.holds_first,
            "holds_mirrored": cell.holds_mirrored,
            "fails": cell.fails,
            "example_hold": list(cell.example_hold) if cell.example_hold else None,
            "example_fail": list(cell.example_fail) if cell.example_fail else None,
            "weight_tuples": [list(t) for t in sorted(cell.weight_tuples)],
            "ratios": sorted(cell.ratios),
            "b_sums": sorted(cell.b_sums),
            "witness_sets_truncated": cell.truncated,
        })
    return {
        "command": "conditions",
        "params": {
            "lambda": report.lam_label,
            "A": report.A,
            "B": report.B,
            "M": report.M,
            "theorem": report.kind.theorem,
            "condition": report.kind.number,
            "corrected_c4": report.corrected_c4,
            "m_lambda": report.m_lambda,
        },
        "range": _range_doc(report.rng),
        "pairs_checked": report.pairs_checked,
        "holds_total": report.holds_total,
        "fails_total": report.fails_total,
        "m_violations": report.m_violations,
        "m_lambda_violations": report.m_lambda_violations,
        "cells": cells,
        "elapsed_ms": report.elapsed_ms if timings else None,
    }


def _search_doc(result: LambdaSearchResult, timings: bool) -> dict:
    return {
        "command": "search-lambda",
        "params": {
            "q": result.q,
            "A_grid": list(result.a_grid),
            "theorem": result.kind.theorem,
            "condition": result.kind.number,
            "budget": result.budget,
        },
        "range": _range_doc(result.rng),
        "assignments_scored": result.assignments_scored,
        "budget_exhausted": result.budget_exhausted,
        "best_lambda": {k: result.best_lambda[k]
                        for k in sorted(result.best_lambda)},
        "best_A": result.best_a,
        "covered": result.covered,
        "total": result.total,
        "coverage": result.coverage,
        "cell_coverage": {k: list(v) for k, v in
                          sorted(result.cell_coverage.items())},
        "irreducible_cells": sorted(result.irreducible_cells),
        "elapsed_ms": result.elapsed_ms if timings else None,
    }


def _render_json(doc: dict) -> str:
    return _json(doc, "\n") + "\n"


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _csv_row(x, case, quantity, value, z) -> tuple:
    """A CSV violation row around its y. The csv module writes every field:
    None as "" and a Fraction as str(), which is "p/q" in lowest terms like
    format_rational. y is left empty, so the first ",," holds it, as
    "violation" and x have no comma."""
    before, _, after = _csv(["violation", x, "", z, case, quantity, value,
                             "", "", ""], ()).partition(",,")
    return before + ",", "," + after


def _render_csv_verification(doc: dict) -> str:
    return _csv(["record", "x", "y", "z", "case", "quantity", "value",
                 "pairs", "max_lhs", "bound"], (
        ["tally", "", "", "", tal["case"], "", "", tal["pairs"],
         _cell_str(tal["max_lhs"]), _cell_str(tal["bound"])]
        for tal in doc["per_case"])) + _rows(doc["violations"], _csv_row)


def _render_csv_coverage(doc: dict) -> str:
    return _csv(["record", "cell", "pairs", "holds_first", "holds_mirrored",
                 "fails", "example_hold", "example_fail", "weight_tuples",
                 "ratios", "b_sums"], ([
        "cell", c["cell"], c["pairs"], c["holds_first"],
        c["holds_mirrored"], c["fails"],
        " ".join(map(str, c["example_hold"])) if c["example_hold"] else "",
        " ".join(map(str, c["example_fail"])) if c["example_fail"] else "",
        ";".join(",".join(map(str, t)) for t in c["weight_tuples"]),
        ";".join(_cell_str(r) for r in c["ratios"]),
        ";".join(_cell_str(b) for b in c["b_sums"]),
    ] for c in doc["cells"]))


def _render_csv_orbit(doc: dict) -> str:
    return _csv(["map", "seed", "cap", "steps", "peak", "reached_one"],
                [[doc["map"], doc["seed"], doc["cap"], _cell_str(doc["steps"]),
                  doc["peak"], doc["reached_one"]]])


def _render_csv_search(doc: dict) -> str:
    return _csv(["case", "lambda", "covered", "total"], (
        [case.label, _cell_str(doc["best_lambda"][case.label]),
         *doc["cell_coverage"].get(case.label, (0, 0))]
        for case in CASE_ORDER))


def _text_row(x, case, quantity, value, z) -> tuple:
    """A text violation line around its y."""
    return (f"  {quantity} at ({x}, ", ")" + (f" z={z}" if z else "")
            + f" [{case}] value={_cell_str(value)}\n")


def _render_text_verification(doc: dict, report: VerificationReport) -> str:
    lines = [f"{doc['command']}: range {report.rng.label()} "
             f"pairs={doc['pairs_checked']} engine={doc['engine']}"]
    lines.append(f"  {'cell':<22}{'pairs':>12}{'max_lhs':>14}{'bound':>8}")
    for tal in doc["per_case"]:
        lines.append(f"  {tal['case']:<22}{tal['pairs']:>12}"
                     f"{_cell_str(tal['max_lhs']):>14}"
                     f"{_cell_str(tal['bound']):>8}")
    total = doc["violations_total"]
    lines.append(f"violations: {total}"
                 + (f" (showing {doc['violations_shown']})" if total else ""))
    return ("\n".join(lines) + "\n" + _rows(doc["violations"], _text_row)
            + f"elapsed: {report.elapsed_ms} ms\n")


def _render_text_coverage(doc: dict, report: ConditionCoverageReport) -> str:
    p = doc["params"]
    lines = [
        f"conditions: theorem {p['theorem']} condition {p['condition']} "
        f"lambda={p['lambda']} A={_cell_str(p['A'])} B={_cell_str(p['B'])} "
        f"M={_cell_str(p['M'])}",
        f"range {report.rng.label()} pairs={doc['pairs_checked']} "
        f"holds={doc['holds_total']} fails={doc['fails_total']}",
    ]
    if doc["m_violations"] is not None:
        lines.append(f"raw |w|>M pairs: {doc['m_violations']}")
    if doc["m_lambda_violations"] is not None:
        lines.append(f"blended |w|>M pairs: {doc['m_lambda_violations']}")
    lines.append(f"  {'cell':<16}{'pairs':>10}{'first':>10}{'mirrored':>10}"
                 f"{'fails':>10}  exemplars")
    for c in doc["cells"]:
        hold = f"hold={tuple(c['example_hold'])}" if c["example_hold"] else ""
        fail = f"fail={tuple(c['example_fail'])}" if c["example_fail"] else ""
        lines.append(f"  {c['cell']:<16}{c['pairs']:>10}{c['holds_first']:>10}"
                     f"{c['holds_mirrored']:>10}{c['fails']:>10}  {hold} {fail}")
        if c["weight_tuples"]:
            combos = " ".join("(" + ",".join(map(str, t)) + ")"
                              for t in c["weight_tuples"])
            ratios = ",".join(_cell_str(r) for r in c["ratios"])
            bsums = ",".join(_cell_str(b) for b in c["b_sums"])
            lines.append(f"      holding weight tuples: {combos}")
            lines.append(f"      ratios: {ratios}   B-sums: {bsums}")
    lines.append(f"elapsed: {report.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def _render_text_search(doc: dict, result: LambdaSearchResult) -> str:
    lines = [
        f"search-lambda: q={doc['params']['q']} "
        f"A-grid={[ _cell_str(a) for a in doc['params']['A_grid'] ]} "
        f"theorem {doc['params']['theorem']} condition {doc['params']['condition']}",
        f"range {result.rng.label()} assignments scored: "
        f"{doc['assignments_scored']}"
        + (" (budget exhausted, pruned search)" if doc["budget_exhausted"] else ""),
        f"best coverage: {doc['covered']}/{doc['total']} "
        f"({_cell_str(result.coverage)}) at A={_cell_str(result.best_a)}",
        "best lambda per case:",
    ]
    for case in CASE_ORDER:
        lines.append(f"  {case.label:<12} {_cell_str(result.best_lambda[case.label])}")
    lines.append("per-cell coverage with this assignment:")
    for k, (got, tot) in sorted(result.cell_coverage.items()):
        lines.append(f"  {k:<12} {got}/{tot}")
    if doc["irreducible_cells"]:
        lines.append("cells no grid assignment fully covers: "
                     + ", ".join(doc["irreducible_cells"]))
    lines.append(f"elapsed: {result.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def _render_text_orbit(doc: dict, record) -> str:
    lines = [f"orbit: map {record.map_name} seed {record.seed} cap {doc['cap']}"]
    if record.steps is None:
        lines.append(f"did not reach 1 within {doc['cap']} steps; "
                     f"peak so far {record.peak}")
    else:
        lines.append(f"reached 1 after {record.steps} steps; peak {record.peak}")
    if record.path is not None:
        lines.append("path: " + " ".join(str(p) for p in record.path))
    return "\n".join(lines) + "\n"


def _render(args, doc: dict, source, as_csv, as_text) -> str:
    """`doc` in --format; text also reads the command's result, `source`."""
    if args.format == "json":
        return _render_json(doc)
    if args.format == "csv":
        return as_csv(doc)
    return as_text(doc, source)


def _verification(args, command: str,
                  report: VerificationReport) -> tuple[int, str]:
    doc = _verification_doc(command, report, args.timings)
    return (0 if report.ok else 1, _render(args, doc, report,
            _render_csv_verification, _render_text_verification))


def _progress_printer(args):
    if not args.progress:
        return None
    def cb(done: int) -> None:
        print(f"  ...{done} checks", file=sys.stderr, flush=True)
    return cb


# --- subcommands --------------------------------------------------------------
# Each returns (exit code, report text); main writes the report.

def cmd_verify(args) -> tuple[int, str]:
    # an mbound sweep costs O(cells x period) plus the rows its cap keeps,
    # whatever the side
    rng = _build_range(args, desk_scale=args.mode != "mbound")
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
    return _verification(args, "verify", report)


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
    doc = _coverage_doc(report, args.timings)
    return 0, _render(args, doc, report, _render_csv_coverage,
                      _render_text_coverage)


def cmd_orbit(args) -> tuple[int, str]:
    if args.seed < 1:
        raise UsageError(f"--seed must be >= 1, got {args.seed}")
    if args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    record = stopping_time(args.map, args.seed, args.cap, keep_path=args.path)
    doc = {
        "command": "orbit",
        "map": record.map_name,
        "seed": record.seed,
        "cap": args.cap,
        "steps": record.steps,
        "peak": record.peak,
        "reached_one": record.steps is not None,
        "path": list(record.path) if record.path is not None else None,
    }
    return (0 if record.steps is not None else 1,
            _render(args, doc, record, _render_csv_orbit, _render_text_orbit))


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
    doc = _search_doc(result, args.timings)
    return 0, _render(args, doc, result, _render_csv_search,
                      _render_text_search)


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
    return _verification(args, "decay", report)


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
                              f"{DESK_SCALE_MAX} (verify --mode mbound needs "
                              f"none)")


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
