"""The two supporting lemmas over finite ranges (verify_lemmas).

The triangle-gap lemma is an identity in (x, y, z), so its pass only
counts; the blend lemma is checked pair by pair, or at a constant lambda
off the cell regions, as one more quadratic check on the maxima layer.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import weights
from .arith import format_rational
from .cells import _direct_table, _entry, _per_pick, _swap
from .collatz import accel_T
from .framework import LambdaSpec, lhs, symmetrize, weighted_lhs
from .maxima import _check_regions
from .regions import _cell_spans
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CaseTally,
    RangeSpec,
    VerificationReport,
    Violation,
    _Findings,
    _sorted_cells,
)
from .weights import CASE_ORDER, CELL_TRANSPOSE, weight_vector


def _blend_checks(lam: Fraction, key: str) -> tuple:
    """The blend lemma's nonpositivity at a constant lambda = p/q as a table
    of maxima._check_regions: per cell the six-term form with the blended
    weights (q-p)*w + p*mirror, scaled by q, against 0, valued Fraction(v
    // 2, q) at the doubled value v. The terms of (y, x) are those of (x,
    y) in the order (0, 2, 1, 3, 5, 4), so for any table that form is
    (q-p)*lhs(x, y) + p*lhs(y, x), the identity by linearity: on a cell,
    (q-p)*E + p*swap(E') for E its _direct_table entry and E' that of the
    transposed cell (weights.CELL_TRANSPOSE) at pick 2 - pick (cells._swap),
    where (y, x) lies at reduced coordinates (l, k)."""
    p, q = lam.numerator, lam.denominator
    table = _direct_table(weights.CELL_WEIGHTS)

    def value(v: int) -> Fraction:
        return Fraction(v // 2, q)

    def blend(cell: int, pick) -> tuple:
        mirror = _swap(_entry(table, CELL_TRANSPOSE[cell],
                              None if pick is None else 2 - pick))
        form = tuple((q - p) * a + p * b
                     for a, b in zip(_entry(table, cell, pick), mirror))
        return form, ((form, 0, key, "lemma2-positive", value),)

    return _per_pick(blend)


def verify_lemmas(rng: RangeSpec, thetas: Sequence, lambdas: Sequence, *,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS
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
    When every lambda is constant, the blend is one more quadratic check on
    the maxima layer (_blend_checks), where the identity holds by linearity
    and only nonpositivity is checked, reading peaks and walking only rows
    that flag, at any side and coordinate size ("vector"). Otherwise it
    runs pair by pair ("scalar"), checks both, and past the 127-bit width
    limit raises OverflowLimitError through weighted_lhs. Each lambda keeps
    its own first flags, in report order, and the report keeps the first
    of their merge. Neither lemma is per parity case, so a case filter is
    rejected, and a theta or lambda given twice would count twice under
    one tally key, so repeated values are rejected too.
    """
    if rng.cases is not None:
        raise ValueError("the lemmas hold over whole ranges; "
                         "drop the parity-case filter")
    started = time.monotonic()
    specs = [s if isinstance(s, LambdaSpec) else LambdaSpec.const(s)
             for s in lambdas]
    values = [Fraction(t) for t in thetas]
    if (len(set(values)) < len(values)
            or len({s.label for s in specs}) < len(specs)):
        raise ValueError("each theta and each lambda counts under its own "
                         "key; drop the repeated values")
    # Triangle-gap lemma over triples: an identity, counted per theta.
    per_case = {f"lemma1:theta={format_rational(theta)}": CaseTally(
        (rng.x_max - rng.x_min + 1) ** 3) for theta in values}
    passes: list[_Findings] = []

    # Blend lemma over pairs.
    vector_ok = all(s.constant is not None for s in specs)
    regions = list(_cell_spans(rng, range(len(CASE_ORDER))))
    for spec in specs:
        ikey = f"lemma2-identity:lambda={spec.label}"
        nkey = f"lemma2-nonpositive:lambda={spec.label}"
        per_case[ikey] = CaseTally(rng.grid_count())
        per_case[nkey] = CaseTally(rng.grid_count())
        found = _Findings(max_violations)
        passes.append(found)
        if vector_ok:
            _check_regions(regions, _blend_checks(spec.constant, nkey), found)
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

    # a stable sort: ties keep the pass order
    violations = sorted(chain.from_iterable(f.kept for f in passes),
                        key=Violation.sort_key)[:max(0, max_violations)]
    return VerificationReport(
        op="lemmas", rng=rng,
        pairs_checked=sum(t.pairs for t in per_case.values()),
        per_case=_sorted_cells(per_case), violations=violations,
        violations_total=sum(f.total for f in passes),
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine="vector" if vector_ok else "scalar",
        params={"thetas": ",".join(map(format_rational, values)),
                "lambdas": ";".join(s.label for s in specs)},
        max_violations=max_violations)
