"""Cell regions: the pairs of each cell over a whole range, counted per
residue of k without walking rows, and the mbound sweep that reads them.

A row class holds k on [k0, k1] (x = 1 is k = 0 alone) and a column class l
on [first, last] (_span). Off the odd-odd case a cell's region is that
rectangle. In an odd-odd row the cell intervals of _odd_odd_spans end at
floor-linear terms in k, kept as (p, q, r) for floor((p*k + q)/r): first,
last, k + c, floor((10k - 1)/11) and floor(11k/10). The high cut min(k - 2,
floor((10k - 1)/11)) is k - 2 up to k = 21 and the other term from there,
and the low cut max(k + 1, floor(11k/10)) is k + 1 below k = 10 and the
other term from there. So on the k-segments [1, 9], [10, 20] and [21, oo)
each interval is [max of its start terms, min of its end terms], and its
pairs are counted per residue of k modulo the period of those terms (11 for
the high cells, 10 for the low ones, 1 for the diagonal), on which every
term is linear in the quotient. A region costs O(period), at any size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import lcm
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


def _le(s: tuple, t: tuple, k: int) -> bool:
    """Whether the term s is at most the term t at k, as rationals."""
    return (s[0] * k + s[1]) * t[2] <= (t[0] * k + t[1]) * s[2]


def _prune(terms: list, k0: int, k1: int, lowest: bool) -> list:
    """The terms of a min (lowest) or a max that no other term passes on its
    side at both k0 and k1. Between two lines that order holds on all of
    [k0, k1], and flooring keeps it, so the dropped terms never decide."""
    def beats(s: tuple, t: tuple) -> bool:
        return all(_le(s, t, k) if lowest else _le(t, s, k) for k in (k0, k1))
    kept: list = []
    for t in terms:
        if not any(beats(s, t) for s in kept):
            kept = [s for s in kept if not beats(t, s)] + [t]
    return kept


def _region_pairs(k0: int, k1: int, ends: list, starts: list) -> int:
    """The sum over k in [k0, k1] of max(0, min(ends) - max(starts) + 1),
    for floor-linear terms (p, q, r) in k."""
    ends, starts = _prune(ends, k0, k1, True), _prune(starts, k0, k1, False)
    # an end term below a start term by 1 at both k0 and k1 empties the region
    if any(all(_le((p, q + r, r), t, k) for k in (k0, k1))
           for p, q, r in ends for t in starts):
        return 0
    period = lcm(*(r for _, _, r in ends + starts))
    total = 0
    for rho in range(period):
        # k = period*j + rho makes each term linear in j
        j0, j1 = -((rho - k0) // period), (k1 - rho) // period
        if j0 <= j1:
            total += _line_pairs(
                j0, j1, [(p * period // r, (p * rho + q) // r)
                         for p, q, r in ends],
                [(p * period // r, (p * rho + q) // r) for p, q, r in starts])
    return total


def _line_pairs(j0: int, j1: int, ends: list, starts: list) -> int:
    """The sum over j in [j0, j1] of max(0, min(ends) - max(starts) + 1), for
    lines (a, b) = a*j + b. Cut wherever two lines of a side cross or a
    width crosses 0, at floor(j*) + 1 and ceil(j*), each piece has one line
    per side and a width of one sign, which sums as an arithmetic series."""
    gaps = [(a - c, b - d) for (a, b), (c, d) in chain(
        combinations(ends, 2), combinations(starts, 2))]
    gaps += [(a - c, b - d + 1) for a, b in ends for c, d in starts]
    cuts = {j0, j1 + 1}
    for a, b in gaps:
        if a:
            cuts.update((-b // a + 1, -(b // a)))
    pieces = sorted(j for j in cuts if j0 <= j <= j1 + 1)
    total = 0
    for s, t in zip(pieces, pieces[1:]):
        a, b = min(ends, key=lambda e: e[0] * s + e[1])
        c, d = max(starts, key=lambda e: e[0] * s + e[1])
        ws, we = (a - c) * s + b - d + 1, (a - c) * (t - 1) + b - d + 1
        if ws + we > 0:
            total += (t - s) * (ws + we) // 2
    return total


def _regions(rng: RangeSpec, cases: Iterable[int]):
    """The cell regions of a range for the cases `cases` admits: (cell,
    pick, pairs), the pick as in _odd_odd_regions; a cell may have several
    regions, and a region no pairs. No row is walked."""
    columns = _columns(rng.y_min, rng.y_max, cases)
    for rx, classes in enumerate(columns):
        k0, k1 = _span(rx, rng.x_min, rng.x_max)
        if k0 > k1:
            continue
        for case, _, first, last in classes:
            if case != ODD_ODD:
                yield case, None, (k1 - k0 + 1) * (last - first + 1)
                continue
            for lo, hi, regions in _SEGMENTS:
                lo, hi = max(k0, lo), k1 if hi is None else min(k1, hi)
                if lo > hi:
                    continue
                for cell, pick, start, end in regions:
                    yield cell, pick, _region_pairs(
                        lo, hi, [(0, last, 1)] + [end] * (end is not None),
                        [(0, first, 1)] + [start] * (start is not None))


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

