"""Report rendering: the indent-2 JSON writer and the row-reading CSV and
text writers give the bytes of the reference encodings they replace."""

import csv
import importlib.util
import io
import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from collatzlab import cli, render, reports
from collatzlab.arith import format_rational
from collatzlab.framework import ConditionParams, LambdaSpec, WeightVector
from collatzlab.reports import QUANTITY_LABELS
from collatzlab.verifier import (
    CaseTally,
    RangeSpec,
    VerificationReport,
    Violation,
    ViolationRows,
    m_bound_sweep,
    orbit_decay_sweep,
)
from collatzlab.weights import CASE_BY_LABEL, TALLY_KEYS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIMIT = 2**53


# --- reference encodings: json.dumps over per-violation dicts ---------------

def ref_enc(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if -LIMIT < value < LIMIT else str(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: ref_enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_enc(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} exactly")


def ref_render_json(doc):
    return json.dumps(ref_enc(doc), indent=2, sort_keys=True) + "\n"


def ref_doc(command, report, timings=False, rows=None):
    """The report's document with one dict per violation row (`rows`, by
    default the report's own), each with the constant "z": None."""
    rng = report.rng
    bounds = {"x_min": rng.x_min, "x_max": rng.x_max,
              "y_min": rng.y_min, "y_max": rng.y_max}
    if rng.cases:
        bounds["cases"] = sorted(c.label for c in rng.cases)
    rows = report.violations if rows is None else rows
    return {
        "command": command,
        "engine": report.engine,
        "params": dict(report.params),
        "range": bounds,
        "pairs_checked": report.pairs_checked,
        "per_case": [
            {"case": key, "pairs": tal.pairs, "max_lhs": tal.max_lhs,
             "bound": tal.bound}
            for key, tal in report.per_case.items()],
        "violations": [
            {"x": v.x, "y": v.y, "z": None, "case": v.case,
             "quantity": v.quantity, "value": v.value} for v in rows],
        "violations_total": report.violations_total,
        "violations_shown": len(rows),
        "elapsed_ms": report.elapsed_ms if timings else None,
    }


def ref_render_csv(doc):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["record", "x", "y", "z", "case", "quantity", "value",
                "pairs", "max_lhs", "bound"])
    for tal in doc["per_case"]:
        w.writerow(["tally", "", "", "", tal["case"], "", "",
                    tal["pairs"], render._cell_str(tal["max_lhs"]),
                    render._cell_str(tal["bound"])])
    for v in doc["violations"]:
        w.writerow(["violation", v["x"], v["y"], "", v["case"],
                    v["quantity"], render._cell_str(v["value"]), "", "", ""])
    return buf.getvalue()


def ref_render_text(doc, report):
    lines = [f"{doc['command']}: range {report.rng.label()} "
             f"pairs={doc['pairs_checked']} engine={doc['engine']}"]
    lines.append(f"  {'cell':<22}{'pairs':>12}{'max_lhs':>14}{'bound':>8}")
    for tal in doc["per_case"]:
        lines.append(f"  {tal['case']:<22}{tal['pairs']:>12}"
                     f"{render._cell_str(tal['max_lhs']):>14}"
                     f"{render._cell_str(tal['bound']):>8}")
    total = doc["violations_total"]
    lines.append(f"violations: {total}"
                 + (f" (showing {doc['violations_shown']})" if total else ""))
    for v in doc["violations"]:
        lines.append(f"  {v['quantity']} at ({v['x']}, {v['y']}) [{v['case']}]"
                     f" value={render._cell_str(v['value'])}")
    lines.append(f"elapsed: {report.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def writes(command, report, timings=False):
    """The report's JSON, CSV and text, as render writes them."""
    return (render._render_json_verification(command, report, timings),
            render._render_csv_verification(report),
            render._render_text_verification(command, report))


def ref_writes(command, report, timings=False, rows=None):
    """The reference JSON, CSV and text of the report, with `rows` as in
    ref_doc."""
    doc = ref_doc(command, report, timings, rows)
    return ref_render_json(doc), ref_render_csv(doc), ref_render_text(
        doc, report)


# --- the JSON writer on generated documents ----------------------------------

ODD_TEXT = st.sampled_from(["", "\x00\x1f\x7f", '"quoted" \\ back/slash',
                            "café 日本 \U0001f600", "\ud800",
                            "tab\tnew\nline"])
TEXT = st.text(st.characters(codec=None, exclude_categories=())) | ODD_TEXT
INTS = (st.integers()
        | st.integers(LIMIT - 3, LIMIT + 3)
        | st.integers(-LIMIT - 3, -LIMIT + 3)
        | st.integers(-(2**130), 2**130))
LEAVES = (st.none() | st.booleans() | INTS | TEXT
          | st.fractions() | st.fractions(max_value=0))
DOCS = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_json_matches_json_dumps_on_generated_documents(doc):
    assert render._render_json(doc) == ref_render_json(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"": [{}]},
    [LIMIT - 1, LIMIT, -LIMIT + 1, -LIMIT, 0, -0], [True, False, None],
    {"é": "\x00", "a\nb": Fraction(-7, 3)},
])
def test_json_matches_json_dumps_on_edge_documents(doc):
    assert render._render_json(doc) == ref_render_json(doc)


@pytest.mark.parametrize("doc", [1.5, {"a": 0.0}, [1, [2, {"b": -1e300}]],
                                 {"a": {1, 2}}, [object()]])
def test_json_refuses_what_it_cannot_encode_exactly(doc):
    with pytest.raises(TypeError):
        render._render_json(doc)


# --- verification reports against the per-dict writers ----------------------

def _mbound(lo, side, m, cap):
    return m_bound_sweep(RangeSpec.square(lo + side - 1, lo=lo), m,
                         max_violations=cap)


def _flat(x, y):
    # weights whose premise holds everywhere yet bound nothing, so expanding
    # orbit steps violate with Fraction values
    return WeightVector(1, 0, 0, 0, 0, 1)


def _edge(pairs, low):
    """A report without rows whose counts, bounds and tally values sit at
    the JSON integer limit: pairs_checked, a tally's pairs and max_lhs at
    `pairs`, the range from `low`, a tally with no max_lhs and one whose
    label the csv module quotes."""
    return VerificationReport(
        op="m-bound", rng=RangeSpec(low, low + 5, low - 2, low + 1),
        pairs_checked=pairs, per_case={
            "even-even": CaseTally(pairs, pairs, 2),
            "odd-1": CaseTally(7, None, None),
            'say "no", 1%': CaseTally(1, Fraction(-7, 3), 0),
            "odd-odd:diagonal": CaseTally(pairs + 1, -pairs, pairs)},
        violations=(), violations_total=0, elapsed_ms=pairs, engine="vector",
        params={"checks": "mbound", "M": "1"})


def _filtered(lo, hi, *labels):
    return m_bound_sweep(RangeSpec(lo, hi, lo, hi, frozenset(
        map(CASE_BY_LABEL.get, labels))), Fraction(1), max_violations=100)


REPORTS = {
    "limit-1": lambda: ("verify", _edge(LIMIT - 1, LIMIT - 1)),
    "limit": lambda: ("verify", _edge(LIMIT, LIMIT)),
    "beyond-limit": lambda: ("decay", _edge(2**70, LIMIT + 1)),
    # a case filter on a range across the limit, and one that leaves no pair
    "case-filter": lambda: ("verify", _filtered(LIMIT - 9, LIMIT + 9,
                                                "odd-odd", "even-even")),
    "empty-filter": lambda: ("verify", _filtered(2, 2, "odd-odd")),
    "mbound-near": lambda: ("verify", _mbound(1, 60, Fraction(1), 500)),
    "mbound-3/2": lambda: ("verify", _mbound(10**6, 40, Fraction(3, 2), 300)),
    "mbound-far": lambda: ("verify", _mbound(2**60, 30, Fraction(1), 200)),
    "decay": lambda: ("decay", orbit_decay_sweep(
        1, 300, ConditionParams(LambdaSpec.const(0), Fraction(1, 3)), W=_flat,
        dedup=False, max_violations=400)),
    "clean": lambda: ("verify", _mbound(1, 20, Fraction(2), 100)),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
@pytest.mark.parametrize("timings", [False, True])
def test_verification_writers_match_the_per_dict_writers(name, timings):
    command, report = REPORTS[name]()
    assert writes(command, report, timings) == ref_writes(command, report,
                                                           timings)


def test_edge_reports_hold_what_they_cover():
    assert not REPORTS["empty-filter"]()[1].per_case
    report = REPORTS["case-filter"]()[1]
    assert report.per_case and report.violations
    assert len(report.rng.cases) == 2


# --- the row writer on generated rows -------------------------------------------

LABELS = (st.sampled_from(["even-even", "weight-above-M", "100%", "%d", "%s",
                           "%%", "a,b", 'say "no"', "", " lead", "x\ny",
                           "lemma1:theta=-1/2"])
          | st.text(max_size=6))
COORDS = (st.integers(1, 60) | st.integers(LIMIT - 3, LIMIT + 3)
          | st.integers(1, 2**70))
VALUES = (st.none() | st.sampled_from([0, 2, Fraction(2), -1, Fraction(-1)])
          | st.integers(-(2**70), 2**70) | st.integers(-LIMIT - 3, -LIMIT + 3)
          | st.fractions())
HEADS = st.tuples(COORDS, LABELS, LABELS, VALUES)


@settings(max_examples=300, deadline=None)
@given(heads=st.lists(HEADS, min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 4), COORDS), max_size=30))
# equal values of two types share no head: JSON writes 2 and "2" apart
@example(heads=[(5, "c", "q", 2), (5, "c", "q", Fraction(2))],
         picks=[(0, 7), (1, 8), (0, 9), (1, LIMIT)])
def test_row_writer_matches_the_per_row_writers(heads, picks):
    # each head takes several y values, and heads recur out of order
    rows = tuple(Violation(x, y, case, quantity, value)
                 for i, y in picks
                 for x, case, quantity, value in [heads[i % len(heads)]])
    report = VerificationReport(
        op="m-bound", rng=RangeSpec.square(2**70), pairs_checked=len(rows),
        per_case={}, violations=rows, violations_total=len(rows),
        elapsed_ms=0, engine="vector")
    assert writes("verify", report) == ref_writes("verify", report)


# --- kept rows as runs against their expanded rows ------------------------------

# a range of y: an even or odd column (step 2), a run of one or the column y = 1
YS = st.builds(lambda start, step, n: range(start, start + step * n, step),
               st.integers(1, 30) | st.integers(LIMIT - 5, LIMIT + 1),
               st.sampled_from([1, 2]), st.integers(1, 6))
QUANTITIES = st.sampled_from(["lhs>0", "bound-exceeded", "weight-above-M",
                              "%d", 'a,"b"%']) | LABELS
RUNS = st.tuples(YS, LABELS, QUANTITIES, VALUES)
GROUPS = st.lists(st.tuples(COORDS, st.lists(RUNS, min_size=1, max_size=4),
                            st.integers(1, 30)), max_size=5)


def kept_rows(groups):
    """ViolationRows of generated rows x, each (x, runs, count) with its runs
    in quantity order as the row walk keeps them, and the reference: each
    row's runs expanded, sorted by (y, quantity) and cut at its count."""
    kept, reference = ViolationRows(), []
    for x, runs, count in groups:
        runs = sorted(runs, key=lambda run: run[2])
        rows = sorted((Violation(x, y, *head) for ys, *head in runs
                       for y in ys), key=lambda v: (v.y, v.quantity))
        kept.add(x, min(count, len(rows)), runs)
        reference += rows[:count]
    return kept, tuple(reference)


@settings(max_examples=300, deadline=None)
@given(GROUPS)
# interleaved even and odd columns after the column y = 1, cut mid-column
@example([(8, [(range(1, 2), "even-1", "weight-above-M", 1),
               (range(2, 12, 2), "even-even", "weight-above-M", 2),
               (range(3, 13, 2), "even-odd", "weight-above-M", 2)], 9)])
# lhs>0 and bound-exceeded at one pair, the count ending between them
@example([(5, [(range(2, 3), "odd-even", "lhs>0", 7),
               (range(2, 3), "odd-even", "bound-exceeded", 7),
               (range(1, 4, 2), "odd-odd", "lhs>0", Fraction(-1, 3))], 2)])
# y across 2^53 in one run, big x and values, and labels that are
# %-directives or hold a comma or a quote
@example([(LIMIT, [(range(LIMIT - 2, LIMIT + 2), "100%", "%d", LIMIT + 5),
                   (range(LIMIT - 1, LIMIT + 3, 2), 'say "no"', "a,b", None)],
           7),
          (LIMIT + 1, [(range(LIMIT, LIMIT + 1), "%s", "%%", -LIMIT - 1)], 1)])
# two runs over the same ys, the count ending inside the row: each y holds
# one row per run, in run order
@example([(4, [(range(2, 12, 2), "even-even", "lhs>0", 3),
               (range(2, 12, 2), "even-even", "bound-exceeded", 3)], 7)])
# interleaved even and odd columns whose ys cross 2^53, so that JSON writes
# some of them as strings
@example([(9, [(range(LIMIT - 4, LIMIT + 4, 2), "odd-even", "weight-above-M",
                2),
               (range(LIMIT - 3, LIMIT + 5, 2), "odd-odd", "weight-above-M",
                3)], 7)])
# runs of one far apart: the row is put in order by an index sort on y
@example([(3, [(range(1, 2), "even-1", "weight-above-M", 1),
               (range(10**12 + 1, 10**12 + 2), "even-odd", "weight-above-M",
                2)], 2)])
# two rows that share a head but for the type of its value: 2 and 2/1 are
# equal and hash alike, yet JSON writes them apart, so each row formats its
# own head
@example([(5, [(range(1, 4), "odd-even", "weight-above-M", 2)], 3),
          (6, [(range(1, 4), "odd-even", "weight-above-M",
                Fraction(2, 1))], 3)])
def test_kept_runs_write_and_read_as_their_expanded_rows(groups):
    kept, reference = kept_rows(groups)
    report = VerificationReport(
        op="m-bound", rng=RangeSpec.square(2**70), pairs_checked=0,
        per_case={}, violations=kept, violations_total=len(reference),
        elapsed_ms=0, engine="vector")
    assert writes("verify", report) == ref_writes("verify", report,
                                                  rows=reference)
    # the writers built no row
    assert kept._rows is None
    assert len(kept) == len(reference) and kept == reference
    assert {type(v) for v in kept} <= {Violation}


def layout_by_marks(runs):
    """reports._layout with every row's covered ys counted in a bytearray:
    the exact answer, which the pair tests may only skip."""
    columns = [run[0] for run in runs]
    total = sum(map(len, columns))
    lo = min(ys.start for ys in columns)
    span = max(ys[-1] for ys in columns) - lo + 1
    if span > reports.SPARSE_SPAN * total:
        return lo, span, total, 0
    marks = bytearray(span)
    for ys in columns:
        marks[ys.start - lo:ys.stop - lo:ys.step] = b"\1" * len(ys)
    # runs that share a y take the index sort, as sparse rows do
    return lo, span, total, int(span - marks.count(0) == total)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.builds(lambda start, step, n: (range(start, start + step * n,
                                                        step),),
                          st.integers(1, 40), st.integers(1, 6),
                          st.integers(1, 12)), min_size=2, max_size=6))
# runs that meet only outside the overlap of their spans: starts agree
# modulo the gcd of their steps, yet no y is shared
@example([(range(1, 13, 6),), (range(5, 13, 4),)])
def test_layout_pair_tests_match_the_bytearray_count(runs):
    assert reports._layout(runs) == layout_by_marks(runs)


def test_sparse_rows_take_memory_by_their_rows_not_their_y_span():
    # scattered runs of one: y slots over the span would take terabytes
    groups = [(3, [(range(y, y + 1), "even-odd", "weight-above-M", 2)
                   for y in (1, 10**6 + 1, 10**12 + 1)], 3)]
    kept, reference = kept_rows(groups)
    report = VerificationReport(
        op="m-bound", rng=RangeSpec.square(2**70), pairs_checked=0,
        per_case={}, violations=kept, violations_total=len(reference),
        elapsed_ms=0, engine="vector")
    tracemalloc.start()
    try:
        texts = writes("verify", report)
        rows = tuple(kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert texts == ref_writes("verify", report, rows=reference)
    assert rows == reference


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("lo, hi, m_cap, cap", [
    (1, 1269, Fraction(3, 2), 8902),
    (36008368538203, 36008368538309, Fraction(3, 2), 5601),
    (1, 3000, Fraction(1), 10**5),
], ids=["near", "far", "ci-100k"])
def test_writing_kept_rows_does_not_double_the_report(lo, hi, m_cap, cap,
                                                      fmt):
    # the largest near and far findings requests of the benchmark pool and
    # the CI's 10^5-row request: every piece of the rows goes to the
    # report's one output list, so the writer's peak stays below two copies
    # of the text, which per-row joined strings would reach
    report = m_bound_sweep(RangeSpec.square(hi, lo=lo), m_cap,
                           max_violations=cap)
    assert len(report.violations) == cap
    write = {
        "json": lambda: render._render_json_verification("verify", report,
                                                         False),
        "csv": lambda: render._render_csv_verification(report),
        "text": lambda: render._render_text_verification("verify", report)}
    tracemalloc.start()
    try:
        text = write[fmt]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("weight-above-M") == cap
    assert peak < 2 * len(text)


LABEL_CASES = (*TALLY_KEYS, "a,b", 'say "no"', "100%", "%s", "", "x\ny")
LABEL_QUANTITIES = (*QUANTITY_LABELS.values(), "a,b", 'say "no"', "%%", "")


@pytest.mark.parametrize("value", [None, 0, -1, Fraction(-1, 3), 2**70,
                                   -(2**70)])
def test_csv_row_heads_match_the_csv_module(value):
    for case in LABEL_CASES:
        for quantity in LABEL_QUANTITIES:
            for x in (1, 2**70, 5):
                pre, mid, after = render._csv_row(case, quantity, value)
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerow(
                    ["violation", x, 7, "", case, quantity, value, "", "", ""])
                assert pre + str(x) + mid + "7" + after == buf.getvalue()


def test_reports_cover_every_kind_of_violation_value():
    far = REPORTS["mbound-far"]()[1].violations
    assert far and min(v.x for v in far) >= LIMIT
    decay = REPORTS["decay"]()[1].violations
    assert any(v.value.denominator > 1 for v in decay)
    assert {v.quantity for v in decay} == {"decay", "telescoped"}
    near = REPORTS["mbound-near"]()[1].violations
    assert near and all(type(v.value) is int for v in near)


def test_z_is_a_writer_constant_of_every_violation_row():
    # rows of several runs (interleaved columns) and of one; z is no field
    # of a row, so JSON writes "z": null, CSV an empty z field under the
    # unchanged header, and text no z
    command, report = REPORTS["mbound-near"]()
    assert any(len(runs) > 1 for _, _, runs in report.violations.groups)
    json_text, csv_text, text = writes(command, report)
    rows = json.loads(json_text)["violations"]
    assert len(rows) == len(report.violations) > 0
    assert all(row.keys() == {"case", "quantity", "value", "x", "y", "z"}
               and row["z"] is None for row in rows)
    assert csv_text.startswith(
        "record,x,y,z,case,quantity,value,pairs,max_lhs,bound\n")
    cells = [row for row in csv.DictReader(io.StringIO(csv_text))
             if row["record"] == "violation"]
    assert len(cells) == len(rows) and all(row["z"] == "" for row in cells)
    assert text.count(" at (") == len(rows) and " z=" not in text


def test_far_mbound_cli_report_writes_big_coordinates_as_strings(capsys):
    lo = 2**60
    code = cli.main(["verify", "--mode", "mbound", "--M", "1",
                     "--min", str(lo), "--max", str(lo + 29), "--allow-large",
                     "--violations-cap", "50", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["violations_shown"] == 50
    assert all(isinstance(v["x"], str) and int(v["x"]) >= lo
               for v in doc["violations"])
    assert render._render_json(doc) == out


# --- every pooled findings request keeps its recorded digest ------------------

def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_pooled_findings_requests_keep_their_digests(capsys):
    checks, workloads = _load("checks"), _load("workloads")
    expected = json.loads(
        (PERFBENCH / "expected" / "findings.json").read_text(encoding="utf-8"))
    requests = [r for stratum in workloads.pool("findings") for r in stratum]
    assert len(requests) == 256
    for req in requests:
        rc = cli.main(list(req.argv))
        out = capsys.readouterr().out
        rec = expected[req.key]
        assert rc == rec["rc"] == req.expect_rc, req.key
        assert checks.digest(out, req.fmt) == rec["digest"], req.key
