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
and text: it formats the texts around x and y once per distinct run head
in a report and lays the y texts out between them, building no Violation
row. format_rational, which perfbench/tracing.py wraps on cli, is looked up
there at call time (_rational), and cli only then imported, since cli
imports this module.
"""

from __future__ import annotations

import csv
import functools
import io
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .reports import _layout, _merge
from .verifier import RangeSpec, VerificationReport, ViolationRows

JSON_INT_LIMIT = 2**53


# --- exact JSON/CSV encoding -------------------------------------------------

_CLI = __package__ + ".cli"


def _rational(value: Fraction) -> str:
    """The "p/q" text of a rational from cli.format_rational, looked up on
    cli at call time (perfbench/tracing.py wraps it there). cli imports
    this module, so cli is imported here, where a rational is written, and
    not while this module loads."""
    cli = sys.modules.get(_CLI)
    if cli is None:
        from . import cli
    return cli.format_rational(value)


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
        return _quote(_rational(value))
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


# --- violation rows ------------------------------------------------------------
# A report keeps its rows as runs (verifier.ViolationRows): per row x, ranges
# of y whose rows share the head (x, case, quantity, value, z). A writer's
# line(case, quantity, value, z) gives the texts around x and y, formatted
# once per distinct head in a report; each row puts its x text between them.
# Where the kept ys span no more values than there are rows, each y is
# formatted once, into a table that runs slice. A row x of one run is one
# join of its y texts with after + before between them. A row whose runs
# interleave without sharing a y (even and odd columns, the column y = 1) is
# laid out in two slots per y (reports._merge): the y and the text after it
# where the row's texts before y agree (CSV rows, rows of one quantity in
# text), else the text before y and the y where its texts after y agree
# (JSON rows of one z). Other rows (several quantities at one y, or texts
# that agree on neither side) take three slots per y, and one whose slots
# would outnumber its rows a stable index sort on y. Every piece goes to the
# report's one output list.


def _rows(out: list, rows: ViolationRows, line: Callable,
          leaf: bool = False) -> None:
    """Append the report lines of kept rows to `out` as pieces; with leaf,
    x and the ys from the JSON integer limit on are written as _leaf writes
    them."""
    columns = [run[0] for _, _, runs in rows.groups for run in runs]
    if not columns:
        return
    lo = min([ys.start for ys in columns])
    hi = max([ys[-1] for ys in columns])
    text = _leaf if leaf and hi >= JSON_INT_LIMIT else str
    if hi - lo < len(rows):
        table = list(map(text, range(lo, hi + 1)))

        def texts(ys: range) -> list:
            return table[ys.start - lo:ys.stop - lo:ys.step]
    else:
        def texts(ys: range):
            return map(text, ys)
    heads: dict = {}

    def head(run: tuple) -> tuple:
        _, case, quantity, value, z = run
        # 2 == Fraction(2), with one hash, yet the two are written apart
        key = (case, quantity, value, type(value), z)
        found = heads.get(key)
        if found is None:
            found = heads[key] = line(case, quantity, value, z)
        return found

    x_text = _leaf if leaf else str
    for x, n, runs in rows.groups:
        xs = x_text(x)
        if len(runs) == 1:
            run = runs[0]
            pre, mid, after = head(run)
            before = pre + xs + mid
            out += before, (after + before).join(texts(run[0][:n])), after
            continue
        lines = list(map(head, runs))
        layout = _layout(runs)
        pre, mid, after = lines[0]
        if layout[3] == 1 and all(t[0] == pre and t[1] == mid for t in lines):
            before = pre + xs + mid
            slots = _merge(n, runs, [
                (texts(run[0]), [t[2] + before] * len(run[0]))
                for run, t in zip(runs, lines)], 2, layout)
            # the row's last y is followed by its own text after y alone
            slots[-1] = slots[-1][:-len(before)]
            out.append(before)
            out += slots
        elif layout[3] == 1 and all(t[2] == after for t in lines):
            slots = _merge(n, runs, [
                ([after + t[0] + xs + t[1]] * len(run[0]), texts(run[0]))
                for run, t in zip(runs, lines)], 2, layout)
            # no row comes before the row's first y to end with a text
            # after y
            slots[0] = slots[0][len(after):]
            out += slots
            out.append(after)
        else:
            out += _merge(n, runs, [
                ([t[0] + xs + t[1]] * len(run[0]), texts(run[0]),
                 [t[2]] * len(run[0])) for run, t in zip(runs, lines)], 3,
                layout)


@functools.cache
def _row_template(nl: str) -> tuple:
    """Templates of a JSON Violation row whose own line starts with `nl`,
    from the comma before it: its text before x (a %-template of case,
    quantity and value), between x and y, and after y (of z)."""
    inner = nl + "  "
    return ("," + nl + "{" + "".join(
        f'{inner}"{name}": %s,' for name in ("case", "quantity", "value"))
        + inner + '"x": ', "," + inner + '"y": ',
        "," + inner + '"z": %s' + nl + "}")


def _json_rows(out: list, rows: ViolationRows, nl: str) -> None:
    """Append the JSON text of kept rows, as _json lays out a list."""
    before, mid, after = _row_template(nl + "  ")

    def line(case, quantity, value, z) -> tuple:
        return (before % (_quote(case), _quote(quantity), _leaf(value)), mid,
                after % _leaf(z))

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
        return _rational(value)
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


def _csv_row(case, quantity, value, z) -> tuple:
    """A CSV violation row around its x and y: numbers written with str as
    the csv module writes them (a Fraction as "p/q"), and None as ""."""
    return ("violation,", ",",
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


def _text_row(case, quantity, value, z) -> tuple:
    """A text violation line around its x and y."""
    return (f"  {quantity} at (", ", ", ")" + (f" z={z}" if z else "")
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


