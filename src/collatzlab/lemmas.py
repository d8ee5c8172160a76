"""The two supporting lemmas, swept over finite ranges (verify_lemmas).

The names that perfbench/tracing.py wraps (lhs, weight_vector, accel_T,
format_rational) and _gap_rows, which tests replace, are looked up on
verifier at call time.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable, Optional, Sequence

from . import verifier
from .arith import WIDTH_LIMIT
from .cells import (
    _at,
    _basis,
    _check_widths,
    _form,
    _nonzero,
    _positive,
    _row,
    _terms,
    _top,
)
from .framework import LambdaSpec, symmetrize, weighted_lhs
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
from .weights import CASE_ORDER, cell_weights, locate


def _blend_visit(lam: Fraction, ikey: str, nkey: str, checked: bool) -> Callable:
    """A _row_walk visitor for the blend lemma at a constant lambda = p/q,
    scaled by q: the six-term form with the blended weights (q-p)*w +
    p*mirror against (q-p)*lhs(x, y) + p*lhs(y, x). The cell of (y, x) is
    constant on the same intervals as that of (x, y), since transposing
    swaps the low and high odd-odd gates."""
    p, q = lam.numerator, lam.denominator
    co = q - p

    @lru_cache(maxsize=1)
    def bases(x: int, column: tuple) -> tuple:
        # the terms of (x, y) and (y, x) along a column, shared by the cells
        # of one row's column
        row = _row(x)
        terms, mirrored = _terms(row, column), _terms(column, row)
        return terms, mirrored, _basis(terms), _basis(mirrored)

    def visit(x, k, cell, pick, column, lo, hi) -> list:
        terms, mirrored, basis, mirror_basis = bases(x, column)
        w = cell_weights(cell, k, lo)
        s = cell_weights(*locate(column[0] + column[1] * lo, x))
        blended = [co * a + p * b for a, b in
                   zip(w, (s[0], s[2], s[1], s[3], s[5], s[4]))]
        left = _form(blended, basis)
        direct, swapped = _form(w, basis), _form(s, mirror_basis)
        if checked:
            _check_widths(w, terms, direct, lo, hi)
            _check_widths(s, mirrored, swapped, lo, hi)
        diff = tuple(v - co * d - p * t
                     for v, d, t in zip(left, direct, swapped))
        flags = [(ikey, "lemma2-identity", _nonzero(diff, lo, hi),
                  lambda l: Fraction(_at(diff, l) // 2, q))]
        if _top(left, lo, hi) > 0:
            flags.append((nkey, "lemma2-positive", _positive(*left, lo, hi),
                          lambda l: Fraction(_at(left, l) // 2, q)))
        return flags

    return visit


def _as_lambda_specs(lambdas: Iterable) -> list[LambdaSpec]:
    out = []
    for item in lambdas:
        if isinstance(item, LambdaSpec):
            out.append(item)
        else:
            out.append(LambdaSpec.const(item))
    return out


def _gap_rows(lo: int, hi: int):
    """Per row x of [lo, hi]^2, the doubled quadratics in z of d(x,y)^2 -
    2*(d(x,z)^2 + d(z,y)^2) for y = lo..hi; every theta < 0 fails through
    the z where one is positive. _basis expands x - z per row and z - y per
    column; x - y, constant in z, is added per pair."""
    axis = range(lo, hi + 1)
    columns = [_form((-2,), _basis(((-y, 1),))) for y in axis]
    for x in axis:
        ra, rb, rc = _form((-2,), _basis(((x, -1),)))
        yield x, [(ra + ca, rb + cb, rc + cc + 2 * (x - y) ** 2)
                  for y, (ca, cb, cc) in zip(axis, columns)]


def verify_lemmas(rng: RangeSpec, thetas: Sequence, lambdas: Sequence, *,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> VerificationReport:
    """Sweep the two supporting lemmas over finite ranges.

    Triangle-gap lemma: for each theta and every triple (x, y, z) drawn from
    [x_min, x_max]^3, the gap theta*d(x,y)^2 - 2*min(theta,0)*(d(x,z)^2 +
    d(z,y)^2) must be >= 0. Rational theta is checked through its numerator
    (scaling by the positive denominator cannot change the sign); for
    theta >= 0 the gap does not involve z, so one check per (x, y) settles
    all z at once.

    Blend lemma: for each lambda and every pair in range, the six-term form
    evaluated with the blended weights must equal (1-lambda)*lhs(x, y) +
    lambda*lhs(y, x) exactly, and must be <= 0 (with the tabulated weights).
    The triangle-gap lemma reads each pair's quadratic in z (_gap_rows) for
    the z where it fails. The blend lemma runs on the cell intervals of the
    pair sweeps (_blend_visit) when every lambda is constant, and pair by
    pair otherwise. The report's engine names what ran: "vector" (the
    triangle gap and interval blends), "scalar" (the per-pair blend) or
    "mixed". Each theta and lambda keeps its own first flags, which it finds
    in report order, and the report keeps the first of their merge. Neither
    lemma is per parity case, so a range with a case filter is rejected.
    """
    if rng.cases is not None:
        raise ValueError("the lemmas hold over whole ranges; "
                         "drop the parity-case filter")
    started = time.monotonic()
    specs = _as_lambda_specs(lambdas)
    per_case: dict[str, CaseTally] = {}
    passes: list[_Findings] = []
    checks_done = 0

    lo, hi = rng.x_min, rng.x_max
    axis = range(lo, hi + 1)

    def note(key: str, count: int) -> None:
        nonlocal checks_done
        tal = per_case.get(key)
        if tal is None:
            tal = per_case[key] = CaseTally()
        tal.pairs += count
        checks_done += count

    # Triangle-gap lemma over triples. Every theta < 0 fails at the same
    # triples (only the values scale), so the pairs whose gap quadratic is
    # positive somewhere are found once, as (x, y, quadratic, spans of z).
    triples = len(axis) ** 3
    gap_fails = None
    for theta in thetas:
        th = Fraction(theta)
        p = th.numerator
        key = f"lemma1:theta={verifier.format_rational(th)}"
        note(key, triples)
        if p >= 0:
            # gap = theta*d(x,y)^2 >= 0 holds identically; z plays no part.
            continue
        found = _Findings(max_violations)
        passes.append(found)
        if gap_fails is None:
            gap_fails = [(x, y, q, _positive(*q, lo, hi))
                         for x, forms in verifier._gap_rows(lo, hi)
                         for y, q in zip(axis, forms)
                         if _top(q, lo, hi) > 0]
        for x, y, q, spans in gap_fails:
            zs = chain.from_iterable(range(s, e + 1) for s, e in spans)
            found.add_runs(x, sum(e - s + 1 for s, e in spans), [
                (range(y, y + 1), key, "lemma1-gap<0", Fraction(
                    p * (_at(q, z) // 2), th.denominator), z)
                for z in islice(zs, found.cap - len(found.kept))])
        if progress is not None:
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
                      _blend_visit(spec.constant, ikey, nkey, checked), found)
        else:
            lhs, w, step = verifier.lhs, verifier.weight_vector, verifier.accel_T
            for x in range(rng.x_min, rng.x_max + 1):
                for y in range(rng.y_min, rng.y_max + 1):
                    lam_v = spec(x, y)
                    blended = symmetrize(w, spec, x, y)
                    left = weighted_lhs(blended, step, x, y)
                    right = ((1 - lam_v) * lhs(w, step, x, y)
                             + lam_v * lhs(w, step, y, x))
                    if left != right:
                        found.add(x, y, ikey, "lemma2-identity", left - right)
                    if left > 0:
                        found.add(x, y, nkey, "lemma2-positive", left)
        if progress is not None:
            progress(checks_done)

    # gap_fails is set once a negative theta has run
    engine = ("vector" if vector_ok else "scalar" if gap_fails is None
              else "mixed")
    # a stable sort: ties keep the pass order
    violations = sorted(chain.from_iterable(f.kept for f in passes),
                        key=Violation.sort_key)[:max(0, max_violations)]
    return VerificationReport(
        op="lemmas", rng=rng, pairs_checked=checks_done,
        per_case=_sorted_cells(per_case), violations=violations,
        violations_total=sum(f.total for f in passes),
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine=engine,
        params={"thetas": ",".join(verifier.format_rational(Fraction(t))
                                   for t in thetas),
                "lambdas": ";".join(s.label for s in specs)},
        max_violations=max_violations)

