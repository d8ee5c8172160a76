"""Condition coverage maps and the per-case lambda grid search.

A condition's outcome at a pair depends only on the pair's signature (its
coverage key, both weight rows and both lambda values), so both evaluate
each condition once per signature (_signatures). check_condition and
weight_vector, which perfbench/tracing.py wraps and tests replace, are
looked up on verifier at call time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import verifier
from .framework import (
    BRANCH_FIRST,
    BRANCH_MIRRORED,
    ConditionId,
    ConditionParams,
    LambdaSpec,
)
from .reports import PROGRESS_STRIDE, RangeSpec
from .weights import (
    CASE_BY_LABEL,
    CASE_ORDER,
    CELL_CASES,
    ParityCase,
    cell_weights,
    locate,
)

COVERAGE_KEYS = tuple(
    [c.label for c in CASE_ORDER if c is not ParityCase.ODD_ODD]
    + ["odd-odd:x>=y", "odd-odd:x<y"]
)

_WITNESS_SET_CAP = 64


@dataclass
class CoverageCell:
    """Per-cell tally of condition outcomes with exemplars and the exact
    quantities observed on the successful branch."""

    pairs: int = 0
    holds_first: int = 0
    holds_mirrored: int = 0
    fails: int = 0
    example_hold: Optional[tuple] = None
    example_fail: Optional[tuple] = None
    weight_tuples: set = field(default_factory=set)
    ratios: set = field(default_factory=set)
    b_sums: set = field(default_factory=set)
    truncated: bool = False

    def _note_set(self, target: set, value) -> None:
        if value is None:
            return
        if len(target) >= _WITNESS_SET_CAP and value not in target:
            self.truncated = True
            return
        target.add(value)


@dataclass
class ConditionCoverageReport:
    """Where a condition system holds or fails over a range, cell by cell."""

    kind: ConditionId
    rng: RangeSpec
    lam_label: str
    A: Fraction
    B: Optional[Fraction]
    M: Optional[Fraction]
    corrected_c4: bool
    m_lambda: bool
    pairs_checked: int
    cells: dict
    holds_total: int
    fails_total: int
    m_violations: Optional[int]
    m_lambda_violations: Optional[int]
    elapsed_ms: int


def _signatures(rng: RangeSpec, lam: Optional[LambdaSpec] = None,
                progress: Optional[Callable[[int], None]] = None) -> dict:
    """The pair signatures of a range: (coverage key, W(x, y) row, W(y, x)
    row), plus (lambda(x, y), lambda(y, x)) when `lam` is given, mapped to
    [pairs, first x, first y]. A condition's outcome at a pair depends only
    on its signature, and the table lists signatures in the row-major order
    of their first pairs. A constant lambda adds the same two values to every
    key, without a call per pair."""
    table: dict = {}
    const = None if lam is None else lam.constant
    pairs = 0
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            cell, k, l = locate(x, y)
            case = CELL_CASES[cell]
            if not rng.admits(case):
                continue
            pairs += 1
            if progress is not None and pairs % PROGRESS_STRIDE == 0:
                progress(pairs)
            key = (case.label if case is not ParityCase.ODD_ODD
                   else "odd-odd:x>=y" if x >= y else "odd-odd:x<y",
                   cell_weights(cell, k, l), cell_weights(*locate(y, x)))
            if const is not None:
                key += (const, const)
            elif lam is not None:
                key += (lam(x, y), lam(y, x))
            entry = table.get(key)
            if entry is None:
                table[key] = [1, x, y]
            else:
                entry[0] += 1
    return table


def condition_coverage(rng: RangeSpec, params: ConditionParams,
                       kind: ConditionId, *, corrected_c4: bool = False,
                       m_lambda: bool = False,
                       progress: Optional[Callable[[int], None]] = None
                       ) -> ConditionCoverageReport:
    """Evaluate one condition over a range and tally per cell.

    The odd-odd case is split by x >= y versus x < y because the two sides
    behave differently under the explicit weight system. The condition is
    evaluated once per pair signature (_signatures), at its first pair, and
    counted for all its pairs; exemplars and witness sets are taken in the
    order pairs first reach each signature, as a per-pair pass would.
    """
    started = time.monotonic()
    cells = {key: CoverageCell() for key in COVERAGE_KEYS}
    pairs = 0
    holds_total = fails_total = 0
    m_viol = 0 if kind.theorem == 3 and kind.number == 5 else None
    ml_viol = 0 if m_lambda and kind.theorem == 3 and kind.number == 5 else None

    for (label, wxy, *_), (count, x, y) in _signatures(
            rng, params.lam, progress).items():
        outcome = verifier.check_condition(
            kind, verifier.weight_vector, params, x, y,
            corrected_c4=corrected_c4, m_lambda=m_lambda)
        wit = outcome.witnesses
        cell = cells[label]
        cell.pairs += count
        pairs += count
        if outcome.holds:
            holds_total += count
            if outcome.branch == BRANCH_MIRRORED:
                cell.holds_mirrored += count
            else:
                cell.holds_first += count
            if cell.example_hold is None:
                cell.example_hold = (x, y)
            if kind.number == 5:
                side = "first" if outcome.branch == BRANCH_FIRST else "mirror"
                cell._note_set(cell.weight_tuples, wxy)
                cell._note_set(cell.ratios, wit.get(f"{side}_ratio"))
                cell._note_set(cell.b_sums, wit.get(f"{side}_b_sum"))
        else:
            fails_total += count
            cell.fails += count
            if cell.example_fail is None:
                cell.example_fail = (x, y)
        if m_viol is not None and not wit.get("m_ok", True):
            m_viol += count
        if ml_viol is not None and not wit.get("m_lambda_ok", True):
            ml_viol += count

    cells = {k: v for k, v in cells.items() if v.pairs > 0}
    return ConditionCoverageReport(
        kind=kind, rng=rng, lam_label=params.lam.label, A=params.A,
        B=params.B, M=params.M, corrected_c4=corrected_c4, m_lambda=m_lambda,
        pairs_checked=pairs, cells=cells, holds_total=holds_total,
        fails_total=fails_total, m_violations=m_viol,
        m_lambda_violations=ml_viol,
        elapsed_ms=int((time.monotonic() - started) * 1000))


# --- lambda grid search ---------------------------------------------------

_SEARCH_GROUPS = (
    (ParityCase.ONE_ONE,),
    (ParityCase.ONE_EVEN, ParityCase.EVEN_ONE),
    (ParityCase.ONE_ODD, ParityCase.ODD_ONE),
    (ParityCase.EVEN_EVEN,),
    (ParityCase.EVEN_ODD, ParityCase.ODD_EVEN),
    (ParityCase.ODD_ODD,),
)

DEFAULT_SEARCH_BUDGET = 100_000


@dataclass
class LambdaSearchResult:
    """Best per-case lambda assignment found on a finite grid."""

    q: int
    a_grid: tuple
    kind: ConditionId
    rng: RangeSpec
    budget: int
    assignments_scored: int
    budget_exhausted: bool
    best_lambda: dict
    best_a: Fraction
    covered: int
    total: int
    cell_coverage: dict
    irreducible_cells: tuple
    elapsed_ms: int

    @property
    def coverage(self) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.covered, self.total)


def _pairwise_lambda_spec(x: int, y: int, v_xy: Fraction,
                          v_yx: Fraction) -> LambdaSpec:
    def fn(u: int, w: int) -> Fraction:
        if (u, w) == (x, y):
            return v_xy
        if (u, w) == (y, x):
            return v_yx
        raise AssertionError("lambda queried off the pair under test")
    return LambdaSpec(fn, f"pair({x},{y})")


def search_lambda(rng: RangeSpec, q: int, a_grid: Sequence, kind: ConditionId,
                  *, B: Optional[Fraction] = None, M: Optional[Fraction] = None,
                  budget: int = DEFAULT_SEARCH_BUDGET,
                  corrected_c4: bool = False,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> LambdaSearchResult:
    """Search per-case lambda values from {0, 1/q, ..., 1} (q = 0 forces 0)
    maximizing the number of pairs satisfying the condition.

    A pair only sees lambda through its own case and the transposed case, so
    outcomes are tabulated per case against the (value, transposed value, A)
    triple, one condition evaluation per pair signature (_signatures) and
    triple. The coverage of an assignment is then a sum over the coupled
    case groups (_SEARCH_GROUPS) of terms that read only the group's own
    values, so each group's best values are chosen on their own, exactly.
    Ties break to the lexicographically smallest (lambda vector, A). When
    the full product grid exceeds the budget, each group keeps only its top
    candidates (the result is marked budget_exhausted); the top one is always
    kept, so the answer is the same, and assignments_scored counts the
    product of the candidates kept.
    """
    started = time.monotonic()
    if q < 0:
        raise ValueError(f"grid denominator must be >= 0, got {q}")
    if kind.theorem == 3 and kind.number == 5 and (B is None or M is None):
        raise ValueError("family-3 condition 5 requires both B and M")
    a_values = sorted({Fraction(a) for a in a_grid})
    if not a_values:
        raise ValueError("A grid must not be empty")
    for a in a_values:
        if not 0 < a < 1:
            raise ValueError(
                f"A must lie in (0, 1), got {verifier.format_rational(a)}")
    values = [Fraction(i, q) for i in range(q + 1)] if q >= 1 else [Fraction(0)]

    # sat[case][(v_xy, v_yx, A)] = pairs of that case satisfied under those
    # lambda values; total[case] = pairs of that case in range. A case that
    # is its own transpose gives both values one entry of the assignment,
    # so only v_xy == v_yx is realizable there.
    sat: dict = {c: {} for c in CASE_ORDER}
    total: dict = {c: 0 for c in CASE_ORDER}
    diagonal = [(v, v) for v in values]
    square = list(product(values, values))
    for (label, *_), (count, x, y) in _signatures(
            rng, progress=progress).items():
        case = CASE_BY_LABEL[label.split(":")[0]]
        total[case] += count
        realizable = diagonal if case.transpose is case else square
        for (v1, v2), a in product(realizable, a_values):
            params = ConditionParams(_pairwise_lambda_spec(x, y, v1, v2), a,
                                     B, M)
            if verifier.check_condition(kind, verifier.weight_vector, params,
                                        x, y, corrected_c4=corrected_c4).holds:
                sat[case][v1, v2, a] = sat[case].get((v1, v2, a), 0) + count
    pairs = sum(total.values())
    present = [c for c in CASE_ORDER if total[c] > 0]

    budget_exhausted = (len(values) ** 9) * len(a_values) > budget
    keep = max(1, int(max(1, budget // len(a_values))
                      ** (1.0 / len(_SEARCH_GROUPS))))
    ranked = []
    scored = 0
    for a in a_values:
        assign = {}
        cov = 0
        kept = 1
        for group in _SEARCH_GROUPS:
            if len(group) == 1:
                c = group[0]
                combos = [((v,), sat[c].get((v, v, a), 0)) for v in values]
            else:
                c, tc = group
                combos = [((v1, v2),
                           sat[c].get((v1, v2, a), 0) + sat[tc].get((v2, v1, a), 0))
                          for v1 in values for v2 in values]
            vals, score = min(combos, key=lambda cv: (-cv[1], cv[0]))
            assign.update(zip(group, vals))
            cov += score
            kept *= min(keep, len(combos)) if budget_exhausted else len(combos)
        scored += kept
        ranked.append(((-cov, tuple(assign[c] for c in CASE_ORDER), a), assign))
    (neg_cov, _, best_a), best_assign = min(ranked, key=itemgetter(0))

    cell_coverage = {}
    for c in present:
        got = sat[c].get((best_assign[c], best_assign[c.transpose], best_a), 0)
        cell_coverage[c.label] = (got, total[c])
    # sat holds realizable lambda pairs only: a cell is irreducible when no
    # grid assignment covers all its pairs
    irreducible = tuple(c.label for c in present
                        if max(sat[c].values(), default=0) < total[c])

    return LambdaSearchResult(
        q=q, a_grid=tuple(a_values), kind=kind, rng=rng, budget=budget,
        assignments_scored=scored, budget_exhausted=budget_exhausted,
        best_lambda={c.label: best_assign[c] for c in CASE_ORDER},
        best_a=best_a, covered=-neg_cov, total=pairs,
        cell_coverage=cell_coverage, irreducible_cells=irreducible,
        elapsed_ms=int((time.monotonic() - started) * 1000))

