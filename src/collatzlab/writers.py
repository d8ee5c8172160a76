"""Report writers of the conditions, search-lambda and orbit commands, in
text, JSON and CSV. Each builds its report's document once: its JSON comes
from render's indent-2 writer (render._render_json) and its CSV from the
csv module; every rational goes through render._cell_str, which looks up
format_rational on cli at call time. Verification reports are render.py's
own."""

from __future__ import annotations

from .render import _cell_str, _csv, _render_json
from .verifier import ConditionCoverageReport, LambdaSearchResult, RangeSpec
from .weights import CASE_ORDER


def _range_doc(rng: RangeSpec) -> dict:
    doc = {"x_min": rng.x_min, "x_max": rng.x_max,
           "y_min": rng.y_min, "y_max": rng.y_max}
    if rng.cases:
        doc["cases"] = sorted(c.label for c in rng.cases)
    return doc


def _render(args, doc: dict, source, as_csv, as_text) -> str:
    """`doc` in --format; text also reads the command's result, `source`."""
    if args.format == "json":
        return _render_json(doc)
    if args.format == "csv":
        return as_csv(doc)
    return as_text(doc, source)


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
