"""The maxima layer: the direct, bounds, simplified and cross checks read
off the cell regions (regions.py) instead of row by row.

A region's spans (regions._cell_spans, which mbound counts too) each have
one start and one end term, a line in k or a floor term of period P. A
cell's forms (_direct_table, _closed_table) are doubled quadratics in (k,
l), so along any line k = p*j + r, l = u*j + w a form is a doubled
quadratic in j (_along). A span is cut into a piece per residue of k
modulo its terms' period (_pieces), on which both ends are lines in j. In
a row, a form that is convex or linear in l (a >= 0, as on every odd-odd
cell) is largest at an end of the row's interval, so on a piece its row
maximum is the larger of its two ends' quadratics in j. A concave form (a
< 0; in the shipped tables only on rectangles) is largest next to its
vertex floor((b0 + b1*k)/(-2a)), clamped to the interval, and the
vertex's floor is linear in j on each residue of j modulo -2a/gcd(-2a,
b1*P); so on each piece the row maximum is the larger of one or two
quadratics in j. Either way a span's row maxima are segments of
quadratics (_row_maxima, _maxima). A sweep reads off them:
- each tally's max_lhs, the largest of its spans' peaks (_span_peak),
  which need no segment. Where the form is convex or linear in l a peak is
  _top of the span's end quadratics, a line end's over [k0, k1] and a
  floor end's per residue, from a table per entry and term (_floor_end).
  A concave form's peak on a rectangle is read off the rectangle in closed
  form (_rectangle_peak): a part in l plus a part in k where b1 = 0, its
  first or last row where c2 >= 0, and otherwise a line of best l (or of
  best k) clamped to the rectangle, where 2a (or 2*c2) divides b1. Only a
  concave form on floor ends or with neither divisor, which no shipped
  table holds, takes the peak of its segments (_peak);
- the rows that can flag, where a row maximum passes a check's threshold
  (_positive). Segments are built only for a span whose peak passes it, so
  a clean sweep builds none. Only those rows are walked,
  over the same regions (regions._row_walk), which counts, values and caps
  their flags. For cross, a table entry whose direct and closed
  coefficients agree flags nowhere, and one that does not flags in the
  rows where their difference is not 0.
A sweep costs O(cells x period), plus the rows it walks, on exact integers
at any coordinate size: every value it computes is a quadratic in the
coordinates, so it has no width check.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import merge
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from . import weights
from .cells import (
    _POINTS,
    _at,
    _closed_table,
    _direct_table,
    _entry,
    _in_l,
    _nonzero,
    _positive,
    _top,
)
from .regions import _cell_spans, _pairs, _row_walk
from .reports import (
    CHECK_BOUNDS,
    CHECK_CROSS,
    CHECK_LHS,
    CHECK_SIMPLIFIED,
    QUANTITY_LABELS,
    RangeSpec,
    _Findings,
    _tally,
)
from .weights import CASE_ORDER, CELL_BOUNDS, TALLY_KEYS


def _cuts(j0: int, j1: int, lines: Iterable) -> Iterable:
    """[j0, j1] cut as pieces (s, t), for j in [s, t), at floor(j*) + 1 and
    ceil(j*) wherever a line (a, b) = a*j + b crosses 0 at j*: on each
    piece every line is negative, 0 or positive throughout."""
    cuts = {j0, j1 + 1}
    for a, b in lines:
        if a:
            cuts.update((-b // a + 1, -(b // a)))
    pieces = sorted(j for j in cuts if j0 <= j <= j1 + 1)
    return zip(pieces, pieces[1:])


def _pieces(span: tuple):
    """A span's rows (regions._spans) as pieces (p, r, s, t, end, start):
    for k = p*j + r and j in [s, t), l runs over [start(j), end(j)], each
    end a line (a, b) = a*j + b. p is the period of the span's terms, 1
    where both are lines in k, and there is a piece per residue r of k."""
    k0, k1, (p, q, r), (u, v, w) = span
    period = lcm(r, w)
    # the first row of each residue rho of k modulo the period
    for k in range(k0, min(k1, k0 + period - 1) + 1):
        rho = k % period
        yield (period, rho, k // period, (k1 - rho) // period + 1,
               (u * period // w, (u * rho + v) // w),
               (p * period // r, (p * rho + q) // r))


def _along(e: tuple, p: int, r: int, u: int, w: int) -> tuple:
    """Table entry e's doubled form (_fit) along k = p*j + r, l = u*j + w, as
    a doubled quadratic in j."""
    a, b0, b1, c0, c1, c2 = e[:6]
    return (a * u * u + (b1 * u + c2 * p) * p,
            (2 * a * w + b0 + b1 * r) * u + (b1 * w + c1 + 2 * c2 * r) * p,
            (a * w + b0 + b1 * r) * w + c0 + (c1 + c2 * r) * r)


def _row_maxima(e: tuple, p: int, r: int, s: int, t: int, end: tuple,
                start: tuple):
    """The largest value of entry e's form in each row of a piece
    (_pieces), as segments (p, r, i0, i1, quadratics): for k = p*i +
    r with i in [i0, i1], the row's largest doubled value is the largest of
    the doubled quadratics in i. Each row is in one segment; a form convex
    or linear in l has one per piece, of its two ends."""
    a, b0, b1 = e[:3]
    if a >= 0:
        # convex or linear in l: largest at an end
        ends = (start,) if start == end else (start, end)
        yield p, r, s, t - 1, [_along(e, p, r, *line) for line in ends]
        return
    # concave in l: largest at floor(v) or floor(v) + 1 for the vertex v =
    # (b0 + b1*k)/d, or at the end nearer v where v lies outside; floor(v)
    # is linear in i on each residue sigma of j modulo m
    d = -2 * a
    m = d // gcd(d, b1 * p)
    for sigma in range(m):
        i0, i1 = -((sigma - s) // m), (t - 1 - sigma) // m
        if i0 > i1:
            continue
        pm, rs = p * m, p * sigma + r
        lo, hi = ((u * m, u * sigma + w) for u, w in (start, end))
        v = (b1 * pm // d, (b0 + b1 * rs) // d)
        below = (v[0] - lo[0], v[1] - lo[1])  # < 0: largest at lo
        beyond = (v[0] - hi[0], v[1] - hi[1])  # >= 0: largest at hi
        for x, y in _cuts(i0, i1, (below, beyond)):
            if below[0] * x + below[1] < 0:
                lines = (lo,)
            elif beyond[0] * x + beyond[1] >= 0:
                lines = (hi,)
            else:
                lines = (v, (v[0], v[1] + 1))
            yield pm, rs, x, y - 1, [_along(e, pm, rs, *line)
                                     for line in lines]


def _maxima(e: tuple, span: tuple) -> list:
    """The largest value of entry e's form in each row of a span, as
    segments (p, r, i0, i1, quadratics) for k = p*i + r, i in [i0, i1]: a
    row's largest doubled value is the largest of the quadratics of the
    segments that hold it. They are the pieces' (_pieces, _row_maxima),
    whatever the form's shape in l."""
    return [segment for piece in _pieces(span)
            for segment in _row_maxima(e, *piece)]


def _peak(segments: list) -> int:
    """The largest doubled value of segments (_maxima)."""
    return max(_top(q, i0, i1) for _, _, i0, i1, quadratics in segments
               for q in quadratics)


@lru_cache(maxsize=64)
def _floor_end(e: tuple, term: tuple) -> tuple:
    """Entry e's form along an end term (u, v, w) of a span, per residue r
    of k modulo w: with k = w*i + r, a doubled quadratic in i (_span_peak
    reads it for a floor end). A floor end is a floor cut of
    regions._CUTS or one past it, so a table has few keys; the bound serves
    patched tables."""
    u, v, w = term
    return tuple(_along(e, w, r, u, (u * r + v) // w) for r in range(w))


def _rectangle_peak(e: tuple, k0: int, k1: int, l0: int, l1: int):
    """The largest doubled value of a concave entry e (a < 0) on the
    rectangle [k0, k1] x [l0, l1] in closed form (_span_peak's cases), or
    None where none holds."""
    a, b0, b1, c0, c1, c2 = e[:6]
    if not b1:
        # a part in l plus a part in k
        return _top((a, b0, 0), l0, l1) + _top((c2, c1, c0), k0, k1)
    if c2 >= 0:
        # each column is convex or linear in k: largest in a first or last row
        return max(_top(_in_l(e, k0), l0, l1), _top(_in_l(e, k1), l0, l1))
    if b1 % (2 * a):
        if b1 % (2 * c2):
            return None
        # a column's vertex has an integer slope in l: read the rectangle
        # across, as the entry of f(l, k) (cells._swap)
        a, b0, c1, c2 = c2, c1, b0, a
        e, k0, k1, l0, l1 = (a, b0, b1, c0, c1, c2), l0, l1, k0, k1
    # a row's vertex (b0 + b1*k)/d is s*k + b0/d, s = b1/d not 0; the
    # integer nearest it, s*k + t, is the row's best l, and where that
    # leaves [l0, l1], the end it passed is
    d = -2 * a
    s, t = b1 // d, (2 * b0 + d) // (2 * d)
    # the line is in [l0, l1] for k in [i0, i1]; the best l is lo before i0
    # and hi after i1
    lo, hi = (l0, l1) if s > 0 else (l1, l0)
    i0, i1 = -((t - lo) // s), (hi - t) // s
    return max(_top(_along(e, 1, 0, u, w), x, y) for u, w, x, y in (
        (0, lo, k0, min(k1, i0 - 1)), (s, t, max(k0, i0), min(k1, i1)),
        (0, hi, max(k0, i1 + 1), k1)) if x <= y)


def _span_peak(e: tuple, span: tuple) -> int:
    """The largest doubled value of entry e's form on a span, as
    _peak(_maxima(e, span)) gives it. A form convex or linear in l is read
    off the span's ends: a line end's value is one quadratic in k over the
    span, a floor end's one per residue (_floor_end). A concave form (a <
    0) on a rectangle, a span with ends (0, l0, 1) and (0, l1, 1), is read
    in closed form (_rectangle_peak) in three of four cases:
    - b1 = 0: a part in l plus a part in k, each _top on its own side;
    - c2 >= 0: each column is convex or linear in k, so the peak is the
      larger _top of the first and the last row;
    - b1 != 0, c2 < 0, and 2a divides b1 (or 2*c2 does; then the
      rectangle is read across, with k and l swapped): a row's best l is
      a line of k clamped to [l0, l1], so the peak is the largest _top of
      at most three quadratics in k, on the rows below, inside and above
      the clamp (for even-even, k = l);
    - otherwise, and on any span with a floor end, the peak of its
      segments (_maxima), which no shipped entry needs."""
    k0, k1, start, end = span
    if e[0] < 0:
        if start[0] == end[0] == 0 and start[2] == end[2] == 1:
            peak = _rectangle_peak(e, k0, k1, start[1], end[1])
            if peak is not None:
                return peak
        return _peak(_maxima(e, span))
    tops = []
    for term in (start,) if start == end else (start, end):
        u, v, w = term
        if w == 1:
            tops.append(_top(_along(e, 1, 0, u, v), k0, k1))
        else:
            along = _floor_end(e, term)
            tops += (_top(along[k % w], k // w, (k1 - k % w) // w)
                     for k in range(k0, min(k1, k0 + w - 1) + 1))
    return max(tops)


def _rows_above(segments: list, bound: int, row: tuple):
    """The rows x of segments (_maxima) whose largest doubled value
    exceeds bound, as ranges of x; row is the point of the row class
    (_POINTS), x = row[0] + row[1]*k."""
    xs, xp = row[:2]
    for p, r, i0, i1, quadratics in segments:
        for a, b, c in quadratics:
            for u, v in _positive(a, b, c - bound, i0, i1):
                yield range(xs + xp * (p * u + r), xs + xp * (p * v + r) + 1,
                            xp * p or 1)


def _union(ranges: list) -> Iterable[int]:
    """The distinct members of ascending ranges, in ascending order."""
    last = None
    for x in merge(*ranges):
        if x != last:
            yield x
            last = x


def _sweep_forms(rng: RangeSpec, checks: Sequence[str],
                 found: _Findings) -> tuple:
    """A pair sweep of the direct, bounds, simplified or cross check off the
    cell regions. Both forms are read from their own tables: the direct
    form from _direct_table (CELL_WEIGHTS alone), the closed form from
    _closed_table (CELL_FORMS alone), so cross compares two independent
    derivations. Tallies come from the spans' peaks, summed over each run
    of a cell's regions; flags from walking only the rows whose maximum
    passes a threshold, found on segments built only for spans that can
    flag."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_direct = CHECK_LHS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_simp_check = CHECK_SIMPLIFIED in checks
    do_cross = CHECK_CROSS in checks
    table = _direct_table(weights.CELL_WEIGHTS)
    closed = _closed_table(weights.CELL_FORMS) if do_simp else None
    per_case: dict = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    flagged: list = []  # ranges of rows that can flag
    done = 0
    regions = list(_cell_spans(rng, cases))
    # _cell_spans gives a cell's regions one after another
    for cell, group in groupby(regions, itemgetter(0)):
        cell_pairs, cell_peak = 0, None
        # the least doubled value a row maximum must pass to flag
        limit = min([0] * (do_direct or do_simp_check)
                    + [2 * CELL_BOUNDS[cell]] * do_bounds, default=None)
        for _, pick, rx, _, spans in group:
            direct = _entry(table, cell, pick)
            simp = None if closed is None else _entry(closed, cell, pick)
            form = direct if do_lhs else simp
            diff = (tuple(c - d for c, d in zip(simp, direct[:6]))
                    if do_cross and simp != direct[:6] else None)
            row = _POINTS[rx]
            cell_pairs += sum(map(_pairs, spans))
            for span in spans:
                peak = _span_peak(form, span)
                if cell_peak is None or peak > cell_peak:
                    cell_peak = peak
                # segments are built only where rows are read off them
                if limit is not None and peak > limit:
                    flagged += _rows_above(_maxima(form, span), limit, row)
                if diff is not None:
                    for e in (diff, tuple(-v for v in diff)):
                        flagged += _rows_above(_maxima(e, span), 0, row)
        done += cell_pairs
        tal = _tally(per_case, cell)
        tal.pairs += cell_pairs
        tal.absorb_value(cell_peak // 2)

    def above(key: str, check: str, q: tuple, t: int, lo: int,
              hi: int) -> tuple:
        """The flag of the l in [lo, hi] where the doubled quadratic q
        exceeds t."""
        return (key, QUANTITY_LABELS[check],
                _positive(q[0], q[1], q[2] - t, lo, hi),
                lambda l: _at(q, l) // 2)

    def visit(x, k, cell, pick, column, lo, hi) -> list:
        key = TALLY_KEYS[cell]
        flags = []
        if do_lhs:
            direct = _in_l(_entry(table, cell, pick), k)
            top = _top(direct, lo, hi)
            bound = 2 * CELL_BOUNDS[cell]
            if do_direct and top > 0:
                flags.append(above(key, CHECK_LHS, direct, 0, lo, hi))
            if do_bounds and top > bound:
                flags.append(above(key, CHECK_BOUNDS, direct, bound, lo, hi))
        if do_simp:
            simp = _in_l(_entry(closed, cell, pick), k)
            if do_simp_check and _top(simp, lo, hi) > 0:
                flags.append(above(key, CHECK_SIMPLIFIED, simp, 0, lo, hi))
        if do_cross and simp != direct:
            diff = tuple(s - d for s, d in zip(simp, direct))
            flags.append((key, QUANTITY_LABELS[CHECK_CROSS],
                          _nonzero(diff, lo, hi),
                          lambda l, q=diff: _at(q, l) // 2))
        return flags

    if flagged:
        _row_walk(regions, _union(flagged), visit, found)
    return done, per_case
