"""The two supporting lemmas over finite ranges (verify_lemmas).

The triangle-gap lemma is an identity in (x, y, z), so its pass only
counts; the blend lemma is checked pair by pair or over cell intervals.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence

from . import weights
from .arith import WIDTH_LIMIT, format_rational
from .cells import (
    _at,
    _check_widths,
    _direct_table,
    _entry,
    _in_l,
    _positive,
    _row,
    _swap,
    _terms,
    _top,
)
from .collatz import accel_T
from .framework import LambdaSpec, lhs, symmetrize, weighted_lhs
from .regions import _cell_spans, _row_walk
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CaseTally,
    RangeSpec,
    VerificationReport,
    Violation,
    _Findings,
    _pair_bound,
    _sorted_cells,
)
from .weights import CASE_ORDER, CELL_TRANSPOSE, cell_weights, weight_vector


def _blend_visit(lam: Fraction, nkey: str, checked: bool) -> Callable:
    """A _row_walk visitor for the blend lemma's nonpositivity at a constant
    lambda = p/q, scaled by q: the six-term form with the blended weights
    (q-p)*w + p*mirror. That form is (q-p)*lhs(x, y) + p*lhs(y, x) for any
    table, since the terms of (y, x) are those of (x, y) in the order
    (0, 2, 1, 3, 5, 4), so the identity needs no check here. The pair (y,
    x) lies in the transposed cell (weights.CELL_TRANSPOSE) at reduced
    coordinates (l, k), the diagonal's at d = l - k, so on a cell the
    blended form is (q-p)*E + p*swap(E') for E the cell's _direct_table
    entry and E' the transposed cell's at pick 2 - pick (cells._swap)."""
    p, q = lam.numerator, lam.denominator
    table = _direct_table(weights.CELL_WEIGHTS)

    def visit(x, k, cell, pick, column, lo, hi) -> list:
        direct = _entry(table, cell, pick)
        mirror = _swap(_entry(table, CELL_TRANSPOSE[cell],
                              None if pick is None else 2 - pick))
        if checked:
            # the width checks of lhs(x, y) and lhs(y, x)
            row = _row(x)
            _check_widths(cell_weights(cell, k, lo), _terms(row, column),
                          _in_l(direct, k), lo, hi)
            _check_widths(cell_weights(CELL_TRANSPOSE[cell], lo, k),
                          _terms(column, row), _in_l(mirror, k), lo, hi)
        left = _in_l(tuple((q - p) * a + p * b
                           for a, b in zip(direct, mirror)), k)
        if _top(left, lo, hi) <= 0:
            return []
        return [(nkey, "lemma2-positive", _positive(*left, lo, hi),
                 lambda l: Fraction(_at(left, l) // 2, q))]

    return visit


def verify_lemmas(rng: RangeSpec, thetas: Sequence, lambdas: Sequence, *,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> VerificationReport:
    """Sweep the two supporting lemmas over finite ranges.

    Triangle-gap lemma: for each theta and every triple (x, y, z) drawn from
    [x_min, x_max]^3, the gap theta*d(x,y)^2 - 2*min(theta,0)*(d(x,z)^2 +
    d(z,y)^2) must be >= 0. It is the identity -theta*(x + y - 2z)^2 for
    theta < 0 and theta*(x - y)^2 otherwise (framework.lemma1_gap), so it
    holds at every triple: each theta counts its triples and flags none.

    Blend lemma: for each lambda and every pair in range, the six-term form
    evaluated with the blended weights must equal (1-lambda)*lhs(x, y) +
    lambda*lhs(y, x) exactly, and must be <= 0 (with the tabulated weights).
    When every lambda is constant, the blend runs on the cell intervals of
    the pair sweeps (_blend_visit), where the identity holds by linearity
    and only nonpositivity is checked; otherwise it runs pair by pair and
    checks both. The report's engine names the blend that ran: "vector"
    (interval blends) or "scalar" (the per-pair blend). Each lambda keeps
    its own first flags, which it finds in report order, and the report
    keeps the first of their merge. Neither lemma is per parity case, so a
    range with a case filter is rejected.
    """
    if rng.cases is not None:
        raise ValueError("the lemmas hold over whole ranges; "
                         "drop the parity-case filter")
    started = time.monotonic()
    specs = [s if isinstance(s, LambdaSpec) else LambdaSpec.const(s)
             for s in lambdas]
    per_case: dict[str, CaseTally] = {}
    passes: list[_Findings] = []
    checks_done = 0

    def note(key: str, count: int) -> None:
        nonlocal checks_done
        tal = per_case.get(key)
        if tal is None:
            tal = per_case[key] = CaseTally()
        tal.pairs += count
        checks_done += count

    # Triangle-gap lemma over triples: an identity, counted per theta.
    triples = (rng.x_max - rng.x_min + 1) ** 3
    for theta in map(Fraction, thetas):
        note(f"lemma1:theta={format_rational(theta)}", triples)
        if theta < 0 and progress is not None:
            progress(checks_done)

    # Blend lemma over pairs.
    vector_ok = all(s.constant is not None for s in specs)
    checked = _pair_bound(rng) > WIDTH_LIMIT
    for spec in specs:
        ikey = f"lemma2-identity:lambda={spec.label}"
        nkey = f"lemma2-nonpositive:lambda={spec.label}"
        note(ikey, rng.grid_count())
        note(nkey, rng.grid_count())
        found = _Findings(max_violations)
        passes.append(found)
        if vector_ok:
            _row_walk(_cell_spans(rng, range(len(CASE_ORDER))),
                      range(rng.x_min, rng.x_max + 1),
                      _blend_visit(spec.constant, nkey, checked), found)
        else:
            for x in range(rng.x_min, rng.x_max + 1):
                for y in range(rng.y_min, rng.y_max + 1):
                    lam_v = spec(x, y)
                    blended = symmetrize(weight_vector, spec, x, y)
                    left = weighted_lhs(blended, accel_T, x, y)
                    right = ((1 - lam_v) * lhs(weight_vector, accel_T, x, y)
                             + lam_v * lhs(weight_vector, accel_T, y, x))
                    if left != right:
                        found.add(x, y, ikey, "lemma2-identity", left - right)
                    if left > 0:
                        found.add(x, y, nkey, "lemma2-positive", left)
        if progress is not None:
            progress(checks_done)

    engine = "vector" if vector_ok else "scalar"
    # a stable sort: ties keep the pass order
    violations = sorted(chain.from_iterable(f.kept for f in passes),
                        key=Violation.sort_key)[:max(0, max_violations)]
    return VerificationReport(
        op="lemmas", rng=rng, pairs_checked=checks_done,
        per_case=_sorted_cells(per_case), violations=violations,
        violations_total=sum(f.total for f in passes),
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine=engine,
        params={"thetas": ",".join(format_rational(Fraction(t))
                                   for t in thetas),
                "lambdas": ";".join(s.label for s in specs)},
        max_violations=max_violations)
