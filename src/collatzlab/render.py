"""Report writers of the verify and decay commands in text, JSON and CSV,
and the exact encoders that writers.py shares for the other commands.

JSON reports give the bytes of json.dumps(..., indent=2, sort_keys=True)
without its pure-Python encoder, as pieces of one list joined once:
rationals render as "p/q" strings and integers beyond 53-bit magnitude as
decimal strings, so that no reader rounds them. The head of a verification
report is written from fixed templates (_JSON_HEAD, _JSON_TALLY, the CSV
tally line) in json.dumps's sorted-key order and the CSV header's column
order, each value through _leaf or _cell_str and each CSV label quoted
once by the csv module (_csv_labels); other documents go through the
generic indent-2 writer (_render_json).
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
from .verifier import RangeSpec, VerificationReport, ViolationRows

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
    json.dumps."""
    if not isinstance(value, (dict, list, tuple)):
        out.append(_leaf(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
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


def _render_json(doc: dict) -> str:
    out: list = []
    _json(out, doc, "\n")
    out.append("\n")
    return "".join(out)


# --- verification report heads --------------------------------------------------

_JSON_HEAD = ('{\n  "command": %s,\n  "elapsed_ms": %s,\n  "engine": %s,\n'
              '  "pairs_checked": %s,\n  "params": %s,\n  "per_case": %s,\n'
              '  "range": {%s\n    "x_max": %s,\n    "x_min": %s,\n'
              '    "y_max": %s,\n    "y_min": %s\n  },\n  "violations": ')
_JSON_TALLY = ('{\n      "bound": %s,\n      "case": %s,\n      "max_lhs": %s,'
               '\n      "pairs": %s\n    }')


def _json_list(texts: list, nl: str) -> str:
    """The JSON list of item texts, its own line starting with `nl`."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]" if texts else "[]"


def _render_json_verification(doc: dict) -> str:
    """A verification document (_verification_doc) as _render_json would
    write it, its params' values being scalars."""
    params, rng = doc["params"], doc["range"]
    cases = ("\n    \"cases\": " + _json_list(list(map(_leaf, rng["cases"])),
                                            "\n    ") + ","
             if "cases" in rng else "")
    out = [_JSON_HEAD % (
        _leaf(doc["command"]), _leaf(doc["elapsed_ms"]), _leaf(doc["engine"]),
        _leaf(doc["pairs_checked"]),
        "{" + ",".join("\n    " + _quote(k) + ": " + _leaf(params[k])
                       for k in sorted(params)) + "\n  }" if params else "{}",
        _json_list([_JSON_TALLY % (_leaf(t["bound"]), _leaf(t["case"]),
                                   _leaf(t["max_lhs"]), _leaf(t["pairs"]))
                    for t in doc["per_case"]], "\n  "),
        cases, _leaf(rng["x_max"]), _leaf(rng["x_min"]), _leaf(rng["y_max"]),
        _leaf(rng["y_min"]))]
    if doc["violations"]:
        _json_rows(out, doc["violations"], "\n  ")
    else:
        out.append("[]")
    out.append(',\n  "violations_shown": %s,\n  "violations_total": %s\n}\n'
               % (_leaf(doc["violations_shown"]),
                  _leaf(doc["violations_total"])))
    return "".join(out)


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@functools.lru_cache(maxsize=256)
def _csv_labels(*labels: str) -> str:
    """The csv module's text of labels (a row's case and quantity, a tally's
    case) and the commas between them."""
    return _csv(["", *labels, ""], ())[1:-2]


def _csv_row(x, case, quantity, value, z) -> tuple:
    """A CSV violation row around its y: numbers written with str as the csv
    module writes them (a Fraction as "p/q"), and None as ""."""
    return ("violation," + str(x) + ",",
            "," + ("" if z is None else str(z)) + ","
            + _csv_labels(case, quantity) + ","
            + ("" if value is None else str(value)) + ",,,\n")


def _render_csv_verification(doc: dict) -> str:
    out = ["record,x,y,z,case,quantity,value,pairs,max_lhs,bound\n"]
    out += ["tally,,,,%s,,,%s,%s,%s\n" % (
        _csv_labels(tal["case"]), _cell_str(tal["pairs"]),
        _cell_str(tal["max_lhs"]), _cell_str(tal["bound"]))
        for tal in doc["per_case"]]
    _rows(out, doc["violations"], _csv_row)
    return "".join(out)


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


def _render(args, doc: dict, source, as_csv, as_text,
            as_json=_render_json) -> str:
    """`doc` in --format; text also reads the command's result, `source`."""
    if args.format == "json":
        return as_json(doc)
    if args.format == "csv":
        return as_csv(doc)
    return as_text(doc, source)


# --- one report per command: (args, result) to the text of --format --------

def verification(args, command: str,
                 report: VerificationReport) -> tuple[int, str]:
    """The exit code of a verify or decay report, and its text."""
    doc = _verification_doc(command, report, args.timings)
    return (0 if report.ok else 1, _render(
        args, doc, report, _render_csv_verification,
        _render_text_verification, _render_json_verification))


