"""Cell regions: the pairs of each cell over a whole range, laid out as
spans of k on which both interval ends are single terms, and the mbound
sweep that counts them without walking rows.

A row class holds k on [k0, k1] (x = 1 is k = 0 alone) and a column class l
on [first, last] (_span). Off the odd-odd case a cell's region is that
rectangle, one span. In an odd-odd row the cell intervals of _odd_odd_spans
end at floor-linear terms in k, kept as (p, q, r) for floor((p*k + q)/r):
first, last, k + c, floor((10k - 1)/11) and floor(11k/10). The high cut
min(k - 2, floor((10k - 1)/11)) is k - 2 up to k = 21 and the other term
from there, and the low cut max(k + 1, floor(11k/10)) is k + 1 below k = 10
and the other term from there. So on the k-segments [1, 9], [10, 20] and
[21, oo) each interval is [max of its start terms, min of its end terms],
and no side holds two floor terms. The difference of two terms is then
monotone in k, so each pair of terms switches order at most once, at a
point one division finds. Cut there, a region is a few spans (k0, k1,
start, end) of width at least 1 throughout (_spans), and a span's pairs
are the sums of its ends over k (_floor_sum), O(r) each. A region costs
O(1) spans, at any size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from typing import Callable, Iterable, Optional

from . import weights
from .cells import _columns, _direct_table, _span, _walk
from .reports import (
    CHECK_MBOUND,
    PROGRESS_STRIDE,
    QUANTITY_LABELS,
    RangeSpec,
    _Findings,
    _tally,
)
from .weights import CASE_ORDER, CELL_CASES, DIAGONAL, ODD_ODD, TALLY_KEYS

_LINE = ((1, -2, 1), (1, -1, 1), (1, 0, 1), (1, 1, 1))  # k - 2, ..., k + 1


def _odd_odd_regions(high: tuple, low: tuple) -> tuple:
    """The odd-odd cells of a row in l order, cut as _odd_odd_spans cuts
    them where the high and low cuts are the terms `high` and `low`: (cell,
    table pick, start, end) for the interval [max(first, start), min(last,
    end)], None standing for no term. The pick is the diagonal's entry
    d + 1, d = k - l, and None off the diagonal."""
    ends = (high,) + _LINE + (low, None)
    starts = (None,) + tuple((p, q + r, r) for p, q, r in ends[:-1])
    cells = (DIAGONAL + 2, DIAGONAL + 1, DIAGONAL, DIAGONAL, DIAGONAL,
             DIAGONAL - 1, DIAGONAL - 2)
    return tuple(zip(cells, (None, None, 2, 1, 0, None, None), starts, ends))


_SEGMENTS = ((1, 9, _odd_odd_regions(_LINE[0], _LINE[3])),
             (10, 20, _odd_odd_regions(_LINE[0], (11, 0, 10))),
             (21, None, _odd_odd_regions((10, -1, 11), (11, 0, 10))))


def _spans(k0: int, k1: int, ends: list, starts: list) -> list:
    """The region of k in [k0, k1] and l in [max(starts), min(ends)], for
    floor-linear terms (p, q, r) in k, no two of them floors, as spans (k0,
    k1, start, end) with one term each and end >= start throughout.

    An order s >= t holds on a half-line of k, found with one division:
    floor((p*k + q)/r) >= u*k + v where (p - r*u)*k >= r*v - q, and u*k + v
    >= floor((p*k + q)/r) where (r*u - p)*k >= q - r*v - r + 1. Between the
    points where an order of two terms of a side or an end >= start
    switches, each side's extreme term and the sign of the width are
    fixed. The orders taken (a later end at least an earlier one, an
    earlier start at least a later one) keep a tie, which goes to the
    earlier term, up to the next cut. Adjacent pieces with the same terms
    are one span."""
    cuts = {k0, k1 + 1}
    for (p, q, r), (u, v, w) in chain(combinations(ends[::-1], 2),
                                      combinations(starts, 2),
                                      product(ends, starts)):
        if w == 1:
            a, b = p - r * u, r * v - q
        else:
            a, b = w * p - u, v - w * q - w + 1
        if a:
            cuts.add(-(-b // a) if a > 0 else b // a + 1)
    cuts = sorted(c for c in cuts if k0 <= c <= k1 + 1)
    spans: list = []
    for c, d in zip(cuts, cuts[1:]):
        at_ends = [(p * c + q) // r for p, q, r in ends]
        at_starts = [(p * c + q) // r for p, q, r in starts]
        low, high = min(at_ends), max(at_starts)
        if low < high:
            continue
        start, end = starts[at_starts.index(high)], ends[at_ends.index(low)]
        if spans and spans[-1][1] == c - 1 and spans[-1][2:] == (start, end):
            spans[-1] = (spans[-1][0], d - 1, start, end)
        else:
            spans.append((c, d - 1, start, end))
    return spans


def _floor_sum(p: int, q: int, r: int, a: int, b: int) -> int:
    """The sum of floor((p*k + q)/r) over k in [a, b]: the sum of p*k + q,
    less the residues (p*k + q) mod r, which repeat with period r, over r.
    O(r) at any size."""
    n = b - a + 1
    if n <= 0:
        return 0
    total = p * (a + b) * n // 2 + q * n
    if r == 1:
        return total
    full, rest = divmod(n, r)
    cycle = [(p * k + q) % r for k in range(a, a + r)]
    return (total - full * sum(cycle) - sum(cycle[:rest])) // r


def _pairs(span: tuple) -> int:
    """The pairs of a span (_spans): its ends' sum less its starts', plus
    one per row."""
    k0, k1, start, end = span
    return _floor_sum(*end, k0, k1) - _floor_sum(*start, k0, k1) + k1 - k0 + 1


def _cell_spans(rng: RangeSpec, cases: Iterable[int]):
    """The cell regions of a range for the cases `cases` admits, as (cell,
    pick, row class, column, spans): the pick as in _odd_odd_regions, the
    column the point of the column class (_POINTS) in l, and spans as
    _spans gives them. A cell may have several regions, and a region no
    span. No row is walked."""
    columns = _columns(rng.y_min, rng.y_max, cases)
    for rx, classes in enumerate(columns):
        k0, k1 = _span(rx, rng.x_min, rng.x_max)
        if k0 > k1:
            continue
        for case, column, first, last in classes:
            if case != ODD_ODD:
                yield case, None, rx, column, (
                    (k0, k1, (0, first, 1), (0, last, 1)),)
                continue
            for lo, hi, regions in _SEGMENTS:
                lo, hi = max(k0, lo), k1 if hi is None else min(k1, hi)
                if lo > hi:
                    continue
                for cell, pick, start, end in regions:
                    yield cell, pick, rx, column, _spans(
                        lo, hi, [(0, last, 1)] + [end] * (end is not None),
                        [(0, first, 1)] + [start] * (start is not None))


def _regions(rng: RangeSpec, cases: Iterable[int]):
    """The cell regions of a range for the cases `cases` admits: (cell,
    pick, pairs), as _cell_spans lays them out."""
    for cell, pick, _, _, spans in _cell_spans(rng, cases):
        yield cell, pick, sum(map(_pairs, spans))


def _sweep_mbound(rng: RangeSpec, m_cap: Fraction, found: _Findings,
                  progress: Optional[Callable[[int], None]]) -> tuple:
    """An mbound sweep off the cell regions. A cell's weights are constant
    on it (the diagonal's per d = k - l), so a cell whose largest |w|
    (_direct_table) exceeds M flags every pair of its region: pair counts
    and the flag total come from _regions. Only the kept flags are found by
    walking rows (_walk), from x_min until min(cap, total) are kept."""
    # an integer weight exceeds M exactly when it exceeds floor(M)
    m_floor = m_cap.numerator // m_cap.denominator
    table = _direct_table(weights.CELL_WEIGHTS)
    per_case: dict = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    flagged: set = set()
    done = total = 0
    for cell, pick, n in _regions(rng, cases):
        if not n:
            continue
        _tally(per_case, cell).pairs += n
        done += n
        if (table[cell] if pick is None else table[cell][pick])[6] > m_floor:
            total += n
            flagged.add(CASE_ORDER.index(CELL_CASES[cell]))
        passed = done // PROGRESS_STRIDE > (done - n) // PROGRESS_STRIDE
        if progress is not None and passed:
            progress(done)

    def visit(x, k, row, column, spans) -> tuple:
        flags = []
        for cell, lo, hi in spans:
            entry = table[cell] if cell != DIAGONAL else table[cell][k - lo + 1]
            if entry[6] > m_floor:
                flags.append((TALLY_KEYS[cell], QUANTITY_LABELS[CHECK_MBOUND],
                              [(lo, hi)], entry[6]))
        return 0, flags

    head = _Findings(min(found.cap - len(found.kept), total))
    if head.cap:
        _walk(rng, flagged, visit, head, until_full=True)
    found.total += total
    for group in head.kept.groups:
        found.kept.add(*group)
    return done, per_case

