"""The maxima layer: the direct, bounds, simplified and cross checks read
off the cell regions (regions.py) instead of row by row.

On each piece of a region (_cell_pieces), k = P*j + rho and l runs over
[start(j), end(j)], both lines in j. A cell's forms (_direct_table,
_closed_table) are doubled quadratics in (k, l), so along any line l = u*j
+ w a form is a doubled quadratic in j (_along). In a row, a form that is
convex or linear in l (a >= 0, as on every odd-odd cell) is largest at an
end of the row's interval. A concave one (a < 0; in the shipped tables
only on rectangles) is largest next to its vertex floor((b0 +
b1*k)/(-2a)), clamped to the interval; that floor is linear in j on each
residue of j modulo -2a/gcd(-2a, b1*P). So on each piece the row maximum
is the largest of one or two quadratics in j (_row_maxima), and from it
come:
- each tally's max_lhs, by _top of those quadratics;
- the rows that can flag, where a row maximum passes a check's threshold
  (_positive). Only those rows are walked (_walk), by the interval visitor
  of the row walk, so counts, values and caps are the row walk's. For
  cross, a table entry whose direct and closed coefficients agree flags
  nowhere, and one that does not flags in the rows where their difference
  is not 0;
- the width checks of framework.lhs, where _pair_bound passes the width
  limit. A term's square and the form's magnitude are quadratics of the
  same kind, so the rows where a check fails are found the same way, and
  the first of them is walked with the row walk's checks, which raise.
A sweep costs O(cells x period), plus the rows it walks.
"""

from __future__ import annotations

from heapq import merge
from itertools import chain, combinations
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from . import weights
from .arith import WIDTH_LIMIT
from .cells import (
    _POINTS,
    _at,
    _check_widths,
    _closed_table,
    _columns,
    _direct_table,
    _in_l,
    _nonzero,
    _positive,
    _span,
    _terms,
    _top,
    _walk,
)
from .regions import _SEGMENTS, _le, _prune
from .reports import (
    CHECK_BOUNDS,
    CHECK_CROSS,
    CHECK_LHS,
    CHECK_SIMPLIFIED,
    PROGRESS_STRIDE,
    QUANTITY_LABELS,
    RangeSpec,
    _Findings,
    _pair_bound,
    _tally,
)
from .weights import (
    CASE_ORDER,
    CELL_BOUNDS,
    DIAGONAL,
    ODD_ODD,
    TALLY_KEYS,
    cell_weights,
)


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


def _cell_pieces(rng: RangeSpec, cases: Iterable[int]):
    """The cell regions of a range for the cases `cases` admits, as
    _regions finds them (regions.py): (cell, pick, row class, column,
    pieces), each piece (p, r, s, t, end, start) such that for k = p*j + r
    and j in [s, t), l runs over the nonempty [start(j), end(j)], each end a
    line (a, b) = a*j + b. _regions counts the same pieces without building
    them."""
    columns = _columns(rng.y_min, rng.y_max, cases)
    for rx, classes in enumerate(columns):
        k0, k1 = _span(rx, rng.x_min, rng.x_max)
        if k0 > k1:
            continue
        for case, column, first, last in classes:
            if case != ODD_ODD:
                yield case, None, rx, column, (
                    (1, 0, k0, k1 + 1, (0, last), (0, first)),)
                continue
            for lo, hi, regions in _SEGMENTS:
                lo, hi = max(k0, lo), k1 if hi is None else min(k1, hi)
                if lo > hi:
                    continue
                for cell, pick, start, end in regions:
                    yield cell, pick, rx, column, _odd_odd_pieces(
                        lo, hi, [(0, last, 1)] + [end] * (end is not None),
                        [(0, first, 1)] + [start] * (start is not None))


def _odd_odd_pieces(k0: int, k1: int, ends: list, starts: list):
    """The pieces of the region of k in [k0, k1] and l in [max(starts),
    min(ends)], for floor-linear terms (p, q, r) in k, cut as _region_pairs
    and _line_pairs cut it: per residue of k modulo the terms' period, then
    wherever two lines of a side cross or a width crosses 0."""
    ends, starts = _prune(ends, k0, k1, True), _prune(starts, k0, k1, False)
    # an end term below a start term by 1 at both k0 and k1 empties the region
    if any(all(_le((p, q + r, r), t, k) for k in (k0, k1))
           for p, q, r in ends for t in starts):
        return
    period = lcm(*(r for _, _, r in ends + starts))
    for rho in range(period):
        # k = period*j + rho makes each term linear in j
        j0, j1 = -((rho - k0) // period), (k1 - rho) // period
        if j0 > j1:
            continue
        e = [(p * period // r, (p * rho + q) // r) for p, q, r in ends]
        f = [(p * period // r, (p * rho + q) // r) for p, q, r in starts]
        gaps = [(a - c, b - d) for (a, b), (c, d) in chain(
            combinations(e, 2), combinations(f, 2))]
        gaps += [(a - c, b - d + 1) for a, b in e for c, d in f]
        for s, t in _cuts(j0, j1, gaps):
            end = min(e, key=lambda line: line[0] * s + line[1])
            start = max(f, key=lambda line: line[0] * s + line[1])
            if end[0] * s + end[1] >= start[0] * s + start[1]:
                yield period, rho, s, t, end, start


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
    (_cell_pieces), as segments (p, r, i0, i1, quadratics): for k = p*i +
    r with i in [i0, i1], the row's largest doubled value is the largest of
    the doubled quadratics in i."""
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


def _rows_above(segments: list, bound: int, row: tuple):
    """The rows x of segments (_row_maxima) whose largest doubled value
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


def _width_entries(w: Sequence, rx: int, column: tuple, e: tuple) -> list:
    """The quantities the width checks of framework.lhs bound, as doubled
    forms in (k, l) like table entries: each term's square times its |w|
    (term i is x_i + y_i*k + z_i*l), and the form e and its negation."""
    xs, xp, ts, tp = _POINTS[rx]
    out = [e, tuple(-c for c in e[:6])]
    for wi, (x, z), (y, _) in zip(w, _terms((xs, 0, ts, 0), column),
                                  _terms((xp, 0, tp, 0), (0, 0, 0, 0))):
        n = 2 * abs(wi)
        if n:
            out.append((n * z * z, 2 * n * x * z, 2 * n * y * z, n * x * x,
                        2 * n * x * y, n * y * y))
    return out


def _sweep_forms(rng: RangeSpec, checks: Sequence[str], found: _Findings,
                 progress: Optional[Callable[[int], None]]) -> tuple:
    """A pair sweep of the direct, bounds, simplified or cross check off the
    cell regions. Both forms are read from their own tables: the direct
    form from _direct_table (CELL_WEIGHTS alone), the closed form from
    _closed_table (CELL_FORMS alone), so cross compares two independent
    derivations. Tallies come from the regions' row maxima; flags from
    walking only the rows whose maximum passes a threshold."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_direct = CHECK_LHS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_simp_check = CHECK_SIMPLIFIED in checks
    do_cross = CHECK_CROSS in checks
    checked = do_lhs and _pair_bound(rng) > WIDTH_LIMIT
    table = _direct_table(weights.CELL_WEIGHTS)
    closed = _closed_table(weights.CELL_FORMS) if do_simp else None
    per_case: dict = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    flagged: list = []  # ranges of rows that can flag
    failing: list = []  # ranges of rows where a width check fails
    done = 0
    for cell, pick, rx, column, pieces in _cell_pieces(rng, cases):
        direct = table[cell] if pick is None else table[cell][pick]
        simp = None if closed is None else (
            closed[cell] if pick is None else closed[cell][pick])
        form = direct if do_lhs else simp
        # the least doubled value a row maximum must pass to flag
        limit = min([0] * (do_direct or do_simp_check)
                    + [2 * CELL_BOUNDS[cell]] * do_bounds, default=None)
        diff = (tuple(c - d for c, d in zip(simp, direct[:6]))
                if do_cross and simp != direct[:6] else None)
        if checked:
            widths = _width_entries(cell_weights(
                cell, 0 if pick is None else pick - 1, 0), rx, column, direct)
        row = _POINTS[rx]
        pairs = top = 0
        for piece in pieces:
            _, _, s, t, (a, b), (c, d) = piece
            n = (t - s) * ((a - c) * (s + t - 1) + 2 * (b - d + 1)) // 2
            maxima = list(_row_maxima(form, *piece))
            peak = max(_top(q, i0, i1) for _, _, i0, i1, quadratics in maxima
                       for q in quadratics)
            top = max(top, peak) if pairs else peak
            pairs += n
            if limit is not None and peak > limit:
                flagged += _rows_above(maxima, limit, row)
            if diff is not None:
                for e in (diff, tuple(-v for v in diff)):
                    flagged += _rows_above(list(_row_maxima(e, *piece)), 0,
                                           row)
            if checked:
                for e in widths:
                    failing += _rows_above(list(_row_maxima(e, *piece)),
                                           2 * WIDTH_LIMIT, row)
        if pairs:
            tal = _tally(per_case, cell)
            tal.pairs += pairs
            tal.absorb_value(top // 2)
            done += pairs
            passed = done // PROGRESS_STRIDE > (done - pairs) // PROGRESS_STRIDE
            if progress is not None and passed:
                progress(done)

    def width_checks(x, k, row, column, spans) -> tuple:
        terms = _terms(row, column)
        for cell, lo, hi in spans:
            entry = table[cell] if cell != DIAGONAL else table[cell][k - lo + 1]
            _check_widths(cell_weights(cell, k, lo), terms,
                          _in_l(entry, k or 0), lo, hi)
        return 0, []

    def above(key: str, check: str, q: tuple, t: int, lo: int,
              hi: int) -> tuple:
        """The flag of the l in [lo, hi] where the doubled quadratic q
        exceeds t."""
        return (key, QUANTITY_LABELS[check],
                _positive(q[0], q[1], q[2] - t, lo, hi),
                lambda l: _at(q, l) // 2)

    def visit(x, k, row, column, spans) -> tuple:
        # the row x = 1 has no k, and its entries do not depend on one
        kk = k or 0
        flags = []
        for cell, lo, hi in spans:
            pick = k - lo + 1 if cell == DIAGONAL else None  # by d = k - l
            key = TALLY_KEYS[cell]
            if do_lhs:
                direct = _in_l(table[cell] if pick is None
                               else table[cell][pick], kk)
                top = _top(direct, lo, hi)
                bound = 2 * CELL_BOUNDS[cell]
                if do_direct and top > 0:
                    flags.append(above(key, CHECK_LHS, direct, 0, lo, hi))
                if do_bounds and top > bound:
                    flags.append(above(key, CHECK_BOUNDS, direct, bound, lo,
                                       hi))
            if do_simp:
                simp = _in_l(closed[cell] if pick is None
                             else closed[cell][pick], kk)
                if do_simp_check and _top(simp, lo, hi) > 0:
                    flags.append(above(key, CHECK_SIMPLIFIED, simp, 0, lo, hi))
            if do_cross and simp != direct:
                diff = tuple(s - d for s, d in zip(simp, direct))
                flags.append((key, QUANTITY_LABELS[CHECK_CROSS],
                              _nonzero(diff, lo, hi),
                              lambda l, q=diff: _at(q, l) // 2))
        return 0, flags

    if failing:
        # the first row where a check fails raises, as in the row walk
        _walk(rng, cases, width_checks, _Findings(0), rows=_union(failing))
    if flagged:
        _walk(rng, cases, visit, found, rows=_union(flagged))
    return done, per_case
