"""Report writers of the command line: verification reports, condition
coverage, the lambda search and orbits, in text, JSON and CSV.

JSON reports come from this module's own indent-2 writer (_render_json),
which gives the bytes of json.dumps(..., indent=2, sort_keys=True) without
its pure-Python encoder, as pieces of one list that it joins once:
rationals render as "p/q" strings and integers beyond 53-bit magnitude as
decimal strings, so that no reader rounds them.
Verification reports keep their rows as runs of y that share every other
field (verifier.ViolationRows), and one row writer (_rows) serves JSON, CSV
and text: it formats the texts around y once per run and joins the y texts
between them, building no Violation row. format_rational, which
perfbench/tracing.py wraps on cli, is looked up there at call time.
"""

from __future__ import annotations

import csv
import functools
import io
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from . import cli
from .verifier import (
    ConditionCoverageReport,
    LambdaSearchResult,
    RangeSpec,
    VerificationReport,
    ViolationRows,
)
from .weights import CASE_ORDER

JSON_INT_LIMIT = 2**53


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
        return _quote(cli.format_rational(value))
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


# --- violation rows ------------------------------------------------------------
# A report keeps its rows as runs (verifier.ViolationRows): per row x, ranges
# of y whose rows share the head (x, case, quantity, value, z). A writer's
# line(x, case, quantity, value, z) gives the texts before and after y once
# per run; where the kept ys span no more values than there are rows, each y
# is formatted once, into a table that runs slice. A row x of one run is one
# join of its y texts with after + before between them. A row whose runs
# interleave (even and odd columns, the column y = 1, several quantities at
# one y) is laid out in y slots and joined once (reports._merge); only one
# whose slots would outnumber its rows takes a stable index sort on y.


def _rows(out: list, rows: ViolationRows, line: Callable,
          leaf: bool = False) -> None:
    """Append the report lines of kept rows to `out` as pieces; with leaf,
    ys from the JSON integer limit on are written as _leaf writes them."""
    columns = [run[0] for _, _, runs in rows.groups for run in runs]
    if not columns:
        return
    lo, hi = min(ys[0] for ys in columns), max(ys[-1] for ys in columns)
    text = _leaf if leaf and hi >= JSON_INT_LIMIT else str
    if hi - lo < len(rows):
        table = list(map(text, range(lo, hi + 1)))

        def texts(ys: range) -> list:
            return table[ys[0] - lo:ys[-1] - lo + 1:ys.step]
    else:
        def texts(ys: range):
            return map(text, ys)

    def one(x: int, ys: range, *head) -> tuple:
        before, after = line(x, *head)
        return before, (after + before).join(texts(ys)), after

    def pieces(x: int, ys: range, *head) -> tuple:
        before, after = line(x, *head)
        return [before] * len(ys), texts(ys), [after] * len(ys)
    out += chain.from_iterable(rows.each(one, pieces, 3))


@functools.cache
def _row_template(nl: str) -> tuple:
    """%-templates of a JSON Violation row whose own line starts with `nl`,
    from the comma before it: its text before y and after y."""
    inner = nl + "  "
    return ("," + nl + "{" + "".join(
        f'{inner}"{name}": %s,' for name in ("case", "quantity", "value", "x"))
        + inner + '"y": ', "," + inner + '"z": %s' + nl + "}")


def _json_rows(out: list, rows: ViolationRows, nl: str) -> None:
    """Append the JSON text of kept rows, as _json lays out a list."""
    before, after = _row_template(nl + "  ")

    def line(x, case, quantity, value, z) -> tuple:
        return (before % (_quote(case), _quote(quantity), _leaf(value),
                          _leaf(x)), after % _leaf(z))

    first = len(out)
    _rows(out, rows, line, leaf=True)
    # each row brings its comma; the first has none
    out[first] = "[" + out[first][1:]
    out.append(nl + "]")


def _json(out: list, value, nl: str) -> None:
    """Append to `out` the JSON text of `value`, whose own line starts with
    `nl` (a newline and its indent): the indent-2, sorted-key layout of
    json.dumps. Kept rows are written by the row writer (_json_rows)."""
    if not isinstance(value, (dict, list, tuple, ViolationRows)):
        out.append(_leaf(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, ViolationRows):
        _json_rows(out, value, nl)
    else:
        inner = nl + "  "
        is_dict = isinstance(value, dict)
        items = ([(_quote(k) + ": ", value[k]) for k in sorted(value)]
                 if is_dict else [("", v) for v in value])
        sep = ("{" if is_dict else "[") + inner
        for key, item in items:
            out.append(sep + key)
            _json(out, item, inner)
            sep = "," + inner
        out.append(nl + ("}" if is_dict else "]"))


def _cell_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return cli.format_rational(value)
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
    out: list = []
    _json(out, doc, "\n")
    out.append("\n")
    return "".join(out)


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@functools.lru_cache(maxsize=256)
def _csv_labels(case: str, quantity: str) -> str:
    """The csv module's text of a row's case and quantity and their comma."""
    return _csv(["", case, quantity, ""], ())[1:-2]


def _csv_row(x, case, quantity, value, z) -> tuple:
    """A CSV violation row around its y: numbers written with str as the csv
    module writes them (a Fraction as "p/q"), and None as ""."""
    return ("violation," + str(x) + ",",
            "," + ("" if z is None else str(z)) + ","
            + _csv_labels(case, quantity) + ","
            + ("" if value is None else str(value)) + ",,,\n")


def _render_csv_verification(doc: dict) -> str:
    out = [_csv(["record", "x", "y", "z", "case", "quantity", "value",
                 "pairs", "max_lhs", "bound"], (
        ["tally", "", "", "", tal["case"], "", "", tal["pairs"],
         _cell_str(tal["max_lhs"]), _cell_str(tal["bound"])]
        for tal in doc["per_case"]))]
    _rows(out, doc["violations"], _csv_row)
    return "".join(out)


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
    out = ["\n".join(lines) + "\n"]
    _rows(out, doc["violations"], _text_row)
    out.append(f"elapsed: {report.elapsed_ms} ms\n")
    return "".join(out)


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


# --- one report per command: (args, result) to the text of --format --------

def verification(args, command: str,
                 report: VerificationReport) -> tuple[int, str]:
    """The exit code of a verify or decay report, and its text."""
    doc = _verification_doc(command, report, args.timings)
    return (0 if report.ok else 1, _render(args, doc, report,
            _render_csv_verification, _render_text_verification))


def coverage(args, report: ConditionCoverageReport) -> str:
    return _render(args, _coverage_doc(report, args.timings), report,
                   _render_csv_coverage, _render_text_coverage)


def search(args, result: LambdaSearchResult) -> str:
    return _render(args, _search_doc(result, args.timings), result,
                   _render_csv_search, _render_text_search)


def orbit(args, record) -> str:
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
    return _render(args, doc, record, _render_csv_orbit, _render_text_orbit)
