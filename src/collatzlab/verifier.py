"""Exhaustive verification sweeps over finite pair ranges.

This module is the facade of the sweep modules and holds the pair sweeps'
entry points, their per-pair reference and the orbit decay sweep:
- reports: ranges, kept violation rows, tallies and merge_reports;
- cells: each cell's forms as doubled quadratics, and the row walk;
- regions: cell pair counts over a whole range, and the mbound sweep;
- maxima: the direct, bounds, simplified and cross sweeps;
- lemmas: the two supporting lemmas;
- coverage: condition coverage and the lambda grid search.

Every sweep is exact and has one production path. A pair sweep (labelled
"vector") walks no row to count: it reads each cell's region over the whole
range per residue class of k, at O(cells x period) cost at any side and any
coordinate size. mbound counts each cell's pairs (regions.py); the other
modes read each row's largest form value off quadratics over the region's
pieces (maxima.py). Rows are walked only where a check can flag, or, for
mbound, until its violation cap is full. The per-pair pair sweep
(_sweep_scalar) is kept as the reference the tests compare against, in
place of _sweep_vector. Reports over disjoint ranges merge associatively
and commutatively, so partitioned runs reproduce the single-run report.

The names that perfbench/tracing.py wraps (weight_vector, lhs,
check_condition, accel_T, format_rational and the rest imported below) and
those that tests replace (_sweep_vector, check_condition, _gap_rows) are
looked up on this module at call time, by the sweep modules too.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import weights
from .arith import format_rational
from .collatz import DEFAULT_CAP, accel_T
from .coverage import (
    DEFAULT_SEARCH_BUDGET,
    ConditionCoverageReport,
    LambdaSearchResult,
    condition_coverage,
    search_lambda,
)
from .framework import ConditionId, ConditionParams, check_condition, lhs
from .lemmas import _gap_rows, verify_lemmas  # noqa: F401 - tests replace _gap_rows
from .maxima import _sweep_forms
from .regions import _sweep_mbound
from .reports import (
    CHECK_BOUNDS,
    CHECK_CROSS,
    CHECK_LHS,
    CHECK_MBOUND,
    CHECK_SIMPLIFIED,
    DEFAULT_MAX_VIOLATIONS,
    PROGRESS_STRIDE,
    QUANTITY_LABELS,
    CaseTally,
    RangeSpec,
    VerificationReport,
    Violation,
    ViolationRows,
    _Findings,
    _sorted_cells,
    _tally,
    merge_reports,
)
from .weights import (
    CELL_CASES,
    TALLY_KEYS,
    bound_for_key,  # noqa: F401 - perfbench/tracing.py wraps it by name
    cell_weights,
    classify,  # noqa: F401 - perfbench/tracing.py wraps it by name
    locate,
    simplified_lhs,  # noqa: F401 - perfbench/tracing.py wraps it by name
    tally_key,
    weight_vector,
)

__all__ = [
    "DEFAULT_MAX_VIOLATIONS", "DEFAULT_SEARCH_BUDGET", "CaseTally",
    "ConditionCoverageReport", "LambdaSearchResult", "RangeSpec",
    "VerificationReport", "Violation", "ViolationRows", "condition_coverage",
    "cross_check_simplified", "m_bound_sweep", "merge_reports",
    "orbit_decay_sweep", "search_lambda", "verify_lemmas",
    "verify_pseudocontraction", "verify_simplified",
]


# --- pair sweeps -----------------------------------------------------------

def _sweep_scalar(rng: RangeSpec, checks: Sequence[str], m_cap: Fraction,
                  found: _Findings,
                  progress: Optional[Callable[[int], None]]) -> tuple:
    """Pure-Python exact sweep, pair by pair; the reference the interval
    engine must match, which tests run in place of _sweep_vector. Each pair
    is located once; its six-term form is evaluated independently, by
    framework.lhs."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_cross = CHECK_CROSS in checks
    do_m = CHECK_MBOUND in checks
    m_num, m_den = m_cap.numerator, m_cap.denominator

    per_case: dict[str, CaseTally] = {}
    pairs = 0
    done = 0

    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            done += 1
            if progress is not None and done % PROGRESS_STRIDE == 0:
                progress(done)
            cell, k, l = locate(x, y)
            if not rng.admits(CELL_CASES[cell]):
                continue
            pairs += 1
            key = TALLY_KEYS[cell]
            tal = _tally(per_case, cell)
            tal.pairs += 1

            direct = lhs(weight_vector, accel_T, x, y) if do_lhs else None
            simp = weights.CELL_FORMS[cell](k, l) if do_simp else None
            value = direct if direct is not None else simp
            if value is not None:
                tal.absorb_value(value)

            flags = {}
            if CHECK_LHS in checks and direct > 0:
                flags[CHECK_LHS] = direct
            if do_bounds and direct > tal.bound:
                flags[CHECK_BOUNDS] = direct
            if CHECK_SIMPLIFIED in checks and simp > 0:
                flags[CHECK_SIMPLIFIED] = simp
            if do_cross and direct != simp:
                flags[CHECK_CROSS] = simp - direct
            if do_m:
                worst = max(map(abs, cell_weights(cell, k, l)))
                if worst * m_den > m_num:
                    flags[CHECK_MBOUND] = worst
            for check in sorted(flags, key=QUANTITY_LABELS.get):
                found.add(x, y, key, QUANTITY_LABELS[check], flags[check])

    return pairs, per_case


def _sweep_vector(rng: RangeSpec, checks: Sequence[str], m_cap: Fraction,
                  found: _Findings,
                  progress: Optional[Callable[[int], None]]) -> tuple:
    """The production pair sweep off the cell regions: mbound, which m_bound_sweep
    asks for alone, on their pair counts (_sweep_mbound), and every other
    check on their row maxima (_sweep_forms)."""
    if CHECK_MBOUND in checks:
        return _sweep_mbound(rng, m_cap, found, progress)
    return _sweep_forms(rng, checks, found, progress)


def _run_pair_sweep(op: str, rng: RangeSpec, checks: Sequence[str],
                    m_cap: Fraction = Fraction(2),
                    max_violations: int = DEFAULT_MAX_VIOLATIONS,
                    progress: Optional[Callable[[int], None]] = None
                    ) -> VerificationReport:
    """One pair sweep, on the interval engine (labelled "vector")."""
    started = time.monotonic()
    found = _Findings(max_violations)
    pairs, per_case = _sweep_vector(rng, checks, m_cap, found, progress)
    return VerificationReport(
        op=op, rng=rng, pairs_checked=pairs, per_case=_sorted_cells(per_case),
        violations=found.kept, violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000), engine="vector",
        params={"checks": "+".join(checks), "M": format_rational(m_cap)},
        max_violations=max_violations)


def verify_pseudocontraction(rng: RangeSpec, *, bounds: bool = True,
                             max_violations: int = DEFAULT_MAX_VIOLATIONS,
                             progress: Optional[Callable[[int], None]] = None
                             ) -> VerificationReport:
    """Check the contraction inequality lhs <= 0 (and, by default, the
    sharpened per-case bounds) for every pair in range."""
    checks = (CHECK_LHS, CHECK_BOUNDS) if bounds else (CHECK_LHS,)
    return _run_pair_sweep("verify", rng, checks,
                           max_violations=max_violations, progress=progress)


def verify_simplified(rng: RangeSpec, *,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> VerificationReport:
    """Check the per-case closed forms are <= 0 for every pair in range."""
    return _run_pair_sweep("verify-simplified", rng, (CHECK_SIMPLIFIED,),
                           max_violations=max_violations, progress=progress)


def cross_check_simplified(rng: RangeSpec, *,
                           max_violations: int = DEFAULT_MAX_VIOLATIONS,
                           progress: Optional[Callable[[int], None]] = None
                           ) -> VerificationReport:
    """Assert the closed forms equal the direct six-term evaluation on every
    pair (zero tolerance)."""
    return _run_pair_sweep("cross-check", rng, (CHECK_CROSS,),
                           max_violations=max_violations, progress=progress)


def m_bound_sweep(rng: RangeSpec, m_cap: Fraction = Fraction(2), *,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> VerificationReport:
    """Check |w| <= M for all six raw weights over every pair in range."""
    return _run_pair_sweep("m-bound", rng, (CHECK_MBOUND,), m_cap=m_cap,
                           max_violations=max_violations, progress=progress)



# --- orbit decay sweep -------------------------------------------------------

def orbit_decay_sweep(seed_min: int, seed_max: int, params: ConditionParams, *,
                      W=weight_vector, dedup: bool = True,
                      telescoped: bool = True, cap: int = DEFAULT_CAP,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> VerificationReport:
    """Check geometric decay of squared step distances along T-orbits.

    For every seed in [seed_min, seed_max], each orbit step whose pair
    satisfies condition (5) (either branch) must shrink: step_sq <= A *
    prev_sq, exactly. With dedup=True (the default) each orbit is walked
    only until it first drops below its seed; the tail coincides with the
    orbit of a smaller seed, so the union over ascending seeds still covers
    every step of every full orbit. Counts are over (seed, step) visits.

    The cumulative bound step_sq(n) <= A^n * step_sq(0) is checked on the
    longest orbit prefix whose premise holds at every step (in dedup mode,
    within the truncated walk).

    Every violation is counted; the report keeps the max_violations least
    in Violation.sort_key order, ties in seed order, so a capped report is
    the head of the uncapped one. At most twice that many are held at once.
    """
    started = time.monotonic()
    if seed_min < 1 or seed_min > seed_max:
        raise ValueError("need 1 <= seed_min <= seed_max")
    kind = ConditionId(1, 5)
    a_num, a_den = params.A.numerator, params.A.denominator
    memo: dict = {}
    per_case = {
        "decay-steps": CaseTally(),
        "premise-held": CaseTally(),
        "premise-failed": CaseTally(),
        "telescoped-steps": CaseTally(),
    }
    keep = max(0, max_violations)
    kept: list = []
    total = 0
    const = params.lam.constant

    def flag(quantity: str, value: Fraction) -> None:
        nonlocal kept, total
        total += 1
        key = tally_key(prev, cur)
        if keep:
            kept.append(Violation(prev, cur, key, quantity, value))
            if len(kept) > 2 * keep:
                kept = heapq.nsmallest(keep, kept, key=Violation.sort_key)

    def premise(px: int, py: int) -> bool:
        # the outcome depends only on both weight rows and lambda values; a
        # constant lambda adds its value without a call per step
        key = (W(px, py).as_tuple(), W(py, px).as_tuple()) + (
            (const, const) if const is not None
            else (params.lam(px, py), params.lam(py, px)))
        holds = memo.get(key)
        if holds is None:
            holds = check_condition(kind, W, params, px, py).holds
            memo[key] = holds
        return holds

    steps_done = 0
    for seed in range(seed_min, seed_max + 1):
        prev = seed
        cur = accel_T(seed)
        prev_sq = (cur - prev) ** 2
        first_sq = prev_sq
        prefix_intact = True
        pw_num, pw_den = 1, 1
        n = 0
        while n < cap:
            if cur == prev:
                break  # fixed point: no recorded step to bound
            nxt = accel_T(cur)
            step_sq = (nxt - cur) ** 2
            n += 1
            steps_done += 1
            per_case["decay-steps"].pairs += 1
            if premise(prev, cur):
                per_case["premise-held"].pairs += 1
                if a_den * step_sq > a_num * prev_sq:
                    flag("decay", Fraction(a_den * step_sq - a_num * prev_sq,
                                           a_den))
                if telescoped and prefix_intact:
                    pw_num *= a_num
                    pw_den *= a_den
                    per_case["telescoped-steps"].pairs += 1
                    if pw_den * step_sq > pw_num * first_sq:
                        flag("telescoped", Fraction(
                            pw_den * step_sq - pw_num * first_sq, pw_den))
            else:
                per_case["premise-failed"].pairs += 1
                prefix_intact = False
            if dedup and cur < seed:
                break  # the tail is the orbit of a smaller, already-swept seed
            prev, cur, prev_sq = cur, nxt, step_sq
        if progress is not None and seed % 10_000 == 0:
            progress(steps_done)

    return VerificationReport(
        op="orbit-decay", rng=RangeSpec(seed_min, seed_max, 1, 1),
        pairs_checked=steps_done, per_case=_sorted_cells(per_case),
        violations=heapq.nsmallest(keep, kept, key=Violation.sort_key),
        violations_total=total,
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine="dedup" if dedup else "full",
        params={"A": format_rational(params.A), "lambda": params.lam.label,
                "telescoped": str(telescoped)},
        max_violations=max_violations)

