"""The maxima layer: every quadratic check read off the cell regions
(regions.py) instead of row by row. A check is a doubled-form table entry
per cell, a doubled threshold, a key, a quantity and a value map: the
direct, bounds, simplified and cross checks (_form_checks), and the blend
lemma's nonpositivity at a constant lambda (lemmas._blend_checks), all
run by _check_regions.

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
  form (_rectangle_peak): a part in l plus a part in k where b1 = 0, and
  otherwise, per residue of k, a line of best l (or of best k) clamped to
  the rectangle. Only a concave form on floor ends, which no shipped table
  holds, takes the peak of its segments (_peak);
- the rows that can flag, where a row maximum passes a check's threshold
  (_positive). Segments are built only for a span whose peak passes it, so
  a clean sweep builds none. Only those rows are walked, over the same
  regions (regions._row_walk), which counts, values and caps their flags.
A sweep costs O(cells x period), plus the rows it walks, on exact integers
at any coordinate size: every value it computes is a quadratic in the
coordinates, so it has no width check.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import merge
from math import gcd, lcm
from typing import Iterable, Sequence

from . import weights
from .cells import (
    _POINTS,
    _at,
    _closed_table,
    _direct_table,
    _entry,
    _in_l,
    _per_pick,
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


def _rectangle_peak(e: tuple, k0: int, k1: int, l0: int, l1: int) -> int:
    """The largest doubled value of a concave entry e (a < 0) on the
    rectangle [k0, k1] x [l0, l1] in closed form (_span_peak's cases)."""
    a, b0, b1, c0, c1, c2 = e[:6]
    if not b1:
        # a part in l plus a part in k
        return _top((a, b0, 0), l0, l1) + _top((c2, c1, c0), k0, k1)
    if c2 < 0 and 2 * c2 // gcd(2 * c2, b1) > 2 * a // gcd(2 * a, b1):
        # a column's best k repeats with a shorter period than a row's best
        # l: read the rectangle across, as the entry of f(l, k) (cells._swap)
        a, b0, c1, c2 = c2, c1, b0, a
        e, k0, k1, l0, l1 = (a, b0, b1, c0, c1, c2), l0, l1, k0, k1
    # a row's best l is the integer nearest its vertex (b0 + b1*k)/d, and
    # where that leaves [l0, l1], the end it passed; on each residue r of k
    # modulo m, k = m*j + r, that integer is the line s*j + t in j
    d = -2 * a
    m = d // gcd(d, b1)
    s = b1 * m // d
    lo, hi = (l0, l1) if s > 0 else (l1, l0)
    tops = []
    for r in range(m):
        t = (2 * (b0 + b1 * r) + d) // (2 * d)
        # the rows of the residue are j in [j0, j1], and the line is in
        # [l0, l1] for j in [i0, i1]: the best l is lo before i0, hi after i1
        j0, j1 = -((r - k0) // m), (k1 - r) // m
        i0, i1 = -((t - lo) // s), (hi - t) // s
        tops += [_top(_along(e, m, r, u, w), x, y) for u, w, x, y in (
            (0, lo, j0, min(j1, i0 - 1)), (s, t, max(j0, i0), min(j1, i1)),
            (0, hi, max(j0, i1 + 1), j1)) if x <= y]
    return max(tops)


def _span_peak(e: tuple, span: tuple) -> int:
    """The largest doubled value of entry e's form on a span, as
    _peak(_maxima(e, span)) gives it. A form convex or linear in l is read
    off the span's ends: a line end's value is one quadratic in k over the
    span, a floor end's one per residue (_floor_end). A concave form (a <
    0) on a rectangle, a span with ends (0, l0, 1) and (0, l1, 1), is read
    in closed form (_rectangle_peak):
    - b1 = 0: a part in l plus a part in k, each _top on its own side;
    - otherwise a row's best l is the integer nearest its vertex, which on
      each residue of k modulo m = -2a/gcd(2a, b1) is a line in j for k =
      m*j + r, clamped to [l0, l1]; so the peak is the largest _top of at
      most three quadratics in j per residue, on the rows below, inside
      and above the clamp. Where a column's best k has a shorter period,
      the rectangle is read across, with k and l swapped (for even-even,
      k = l).
    A concave form on a span with a floor end, which no shipped entry
    holds, takes the peak of its segments (_maxima)."""
    k0, k1, start, end = span
    if e[0] < 0:
        if start[0] == end[0] == 0 and start[2] == end[2] == 1:
            return _rectangle_peak(e, k0, k1, start[1], end[1])
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


def _check_regions(regions: list, table: tuple, found: _Findings) -> list:
    """Run quadratic checks over cell regions (regions._cell_spans), giving
    per region the largest doubled value of its tallied form. The table
    (cells._per_pick) holds per cell that form's entry and its checks
    (entry, threshold, key, quantity, value), each flagging the pairs where
    its entry's doubled value v exceeds its doubled threshold, valued
    value(v). A span's peak is read once per entry; row maxima are built
    only where it passes a threshold, and only those rows are walked."""
    flagged: list = []  # ranges of rows that can flag
    peaks = []
    for cell, pick, rx, _, spans in regions:
        tallied, checks = _entry(table, cell, pick)
        peak = None
        for span in spans:
            top = _span_peak(tallied, span)
            if peak is None or top > peak:
                peak = top
            for entry, threshold, _, _, _ in checks:
                # segments are built only where rows are read off them
                if (top if entry is tallied
                        else _span_peak(entry, span)) > threshold:
                    flagged += _rows_above(_maxima(entry, span), threshold,
                                           _POINTS[rx])
        peaks.append(peak)

    def visit(x, k, cell, pick, lo, hi) -> list:
        flags = []
        for entry, threshold, key, quantity, value in _entry(
                table, cell, pick)[1]:
            q = _in_l(entry, k)
            if _top(q, lo, hi) > threshold:
                flags.append((key, quantity, _positive(
                    q[0], q[1], q[2] - threshold, lo, hi),
                    lambda l, q=q, value=value: value(_at(q, l))))
        return flags

    if flagged:
        _row_walk(regions, _union(flagged), visit, found)
    return peaks


@lru_cache(maxsize=16)
def _form_checks(checks: tuple, rows: tuple, forms: tuple) -> tuple:
    """The _check_regions table of a form sweep of `checks`, with the
    direct form read off _direct_table(rows) and the closed form off
    _closed_table(forms), so that cross compares two independent
    derivations. Tallies read the direct form, unless only simplified is
    checked. Cross checks the closed form less the direct one, once per
    sign, where that difference is not 0."""
    table = _direct_table(rows)
    closed = (_closed_table(forms)
              if CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks else None)
    tallied = table if set(checks) - {CHECK_SIMPLIFIED} else closed

    def cell_checks(cell: int, pick) -> tuple:
        direct = _entry(table, cell, pick)
        simp = closed and _entry(closed, cell, pick)
        diff = simp and tuple(c - d for c, d in zip(simp, direct))
        # per check, its (entry, doubled threshold, value map)s
        reads = {
            CHECK_LHS: [(direct, 0, lambda v: v // 2)],
            CHECK_BOUNDS: [(direct, 2 * CELL_BOUNDS[cell], lambda v: v // 2)],
            CHECK_SIMPLIFIED: [(simp, 0, lambda v: v // 2)],
            CHECK_CROSS: [(diff, 0, lambda v: v // 2),
                          (tuple(-c for c in diff), 0, lambda v: -v // 2)]
            if diff and any(diff) else []}
        return _entry(tallied, cell, pick), tuple(
            (entry, threshold, TALLY_KEYS[cell], QUANTITY_LABELS[check], value)
            for check in checks for entry, threshold, value in reads[check])

    return _per_pick(cell_checks)


def _sweep_forms(rng: RangeSpec, checks: Sequence[str],
                 found: _Findings) -> tuple:
    """A pair sweep of the direct, bounds, simplified or cross check off the
    cell regions (_form_checks, _check_regions). A cell's tally sums its
    regions' pairs and takes the largest of their peaks."""
    per_case: dict = {}
    done = 0
    regions = list(_cell_spans(
        rng, [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]))
    table = _form_checks(tuple(checks), weights.CELL_WEIGHTS,
                         weights.CELL_FORMS)
    for (cell, _, _, _, spans), peak in zip(
            regions, _check_regions(regions, table, found)):
        pairs = sum(map(_pairs, spans))
        done += pairs
        tal = _tally(per_case, cell)
        tal.pairs += pairs
        tal.absorb_value(peak // 2)
    return done, per_case
