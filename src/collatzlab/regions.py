"""Cell regions: the pairs of each cell over a whole range, laid out as
spans of k on which both interval ends are single terms, and the mbound
sweep that counts them without walking rows.

A row class holds k on [k0, k1] (x = 1 is k = 0 alone) and a column class l
on [first, last] (_span). Off the odd-odd case a cell's region is that
rectangle, one span. In an odd-odd row the cells of _odd_odd_spans lie
between cuts: a cell's interval is [max(first, T + 1), min(last, U)] for
the cut T before it and the cut U after it (none before the first cell or
after the last). The cuts are k - 2, ..., k + 1 and the high cut min(k -
2, floor((10k - 1)/11)) and low cut max(k + 1, floor(11k/10)); each of
those two is one term on a stretch of k (_REGIONS), so on a stretch every
cut is one floor-linear term in k, kept as (p, q, r) for floor((p*k +
q)/r), and every term rises with k. Then T >= first and T >= last each
hold from a point on that one division finds, and twelve such points, two
per cut, lay out every cell (_cell_spans). A cell's interval is not empty
from where U reaches first to where T reaches last, and on the two bands,
from where their start is at most their end (a fixed k). Inside, it starts
at first until T passes first and ends at U until U reaches last. So a
cell's region is at most three spans (k0, k1, start, end) per stretch, of
width at least 1 throughout (_spans), and a span's pairs are the sums of
its ends over k (_floor_sum), O(r) each. A region costs O(1), at any size.
"""

from __future__ import annotations

from fractions import Fraction
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

# The cuts between the odd-odd cells of a row k, as terms (p, q, r) for
# floor((p*k + q)/r): k - 2, k - 1, k, k + 1, floor((10k - 1)/11) and
# floor(11k/10). Then two stand-ins: no cut before the first cell, and none
# after the last.
_CUTS = ((1, -2, 1), (1, -1, 1), (1, 0, 1), (1, 1, 1), (10, -1, 11),
         (11, 0, 10))
_FIRST, _LAST = len(_CUTS), len(_CUTS) + 1


def _odd_odd_regions(*regions: tuple) -> tuple:
    """The odd-odd cells of a row in l order, from (cell, pick, lo, hi,
    before, after): on k in [lo, hi] (hi None for no bound) the cell's
    interval is [max(first, T + 1), min(last, U)] for the cuts T = before
    and U = after (indices into _CUTS, or _FIRST and _LAST), with its start
    term T + 1 and end term U appended (None for no cut). The pick is the
    diagonal's entry d + 1, d = k - l, and None off the diagonal."""
    out = []
    for region in regions:
        before, after = region[4:]
        start = None
        if before != _FIRST:
            p, q, r = _CUTS[before]
            start = (p, q + r, r)
        out.append(region + (start, None if after == _LAST else _CUTS[after]))
    return tuple(out)


# The high cut min(k - 2, floor((10k - 1)/11)) is k - 2 up to k = 20 and
# the other term from k = 21, and the low cut max(k + 1, floor(11k/10)) is
# k + 1 up to k = 9 and the other term from k = 10. The high band,
# floor((10k - 1)/11) + 1 <= l <= k - 2, holds a pair from k = 22 on, and
# the low band, k + 2 <= l <= floor(11k/10), from k = 20 on.
_REGIONS = _odd_odd_regions(
    (DIAGONAL + 2, None, 1, 20, _FIRST, 0),  # high-deep
    (DIAGONAL + 2, None, 21, None, _FIRST, 4),
    (DIAGONAL + 1, None, 22, None, 4, 0),  # high-band
    (DIAGONAL, 2, 1, None, 0, 1),  # the diagonal's l = k - 1, k, k + 1
    (DIAGONAL, 1, 1, None, 1, 2),
    (DIAGONAL, 0, 1, None, 2, 3),
    (DIAGONAL - 1, None, 20, None, 3, 5),  # low-band
    (DIAGONAL - 2, None, 1, 9, 3, _LAST),  # low-deep
    (DIAGONAL - 2, None, 10, None, 5, _LAST))


def _spans(k0: int, k1: int, ks: int, ke: int, starts: tuple,
           ends: tuple) -> list:
    """A cell region of k in [k0, k1] as at most three spans (k0, k1, start,
    end), one per stretch of k on which both ends of the interval are one
    term each: the start is starts[0] (first) up to ks and starts[1] (the
    cell's start term) after it, and the end is ends[0] (the cell's end
    term) before ke and ends[1] (last) from ke on. _cell_spans reads k0,
    k1, ks and ke off the points where the cuts reach first and last."""
    cuts = sorted({k0, k1 + 1} | {c for c in (ks + 1, ke) if k0 < c <= k1})
    return [(c, d - 1, starts[c > ks], ends[c >= ke])
            for c, d in zip(cuts, cuts[1:])]


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
    _spans gives them. A cell may have several regions, and a region with
    no pair is left out. No row is walked."""
    columns = _columns(rng.y_min, rng.y_max, cases)
    for rx, classes in enumerate(columns):
        k0, k1 = _span(rx, rng.x_min, rng.x_max)
        if k0 > k1:
            continue
        for case, column, first, last in classes:
            low, high = (0, first, 1), (0, last, 1)
            if case != ODD_ODD:
                yield case, None, rx, column, ((k0, k1, low, high),)
                continue
            # per cut T, the first k with T >= first (g) and the first with
            # T >= last (h); then the pads for no cut before the first cell
            # (its start is first throughout) and none after the last
            # (its end is last)
            g = [-((q - r * first) // p) for p, q, r in _CUTS] + [k1 + 1, k0]
            h = [-((q - r * last) // p) for p, q, r in _CUTS] + [k1 + 1, k0]
            for cell, pick, lo, hi, before, after, start, end in _REGIONS:
                # not empty where end >= first and start <= last; a band's
                # start <= end from its lo on
                a = max(k0, lo, g[after])
                b = min(k1 if hi is None else min(k1, hi), h[before] - 1)
                if a <= b:
                    yield cell, pick, rx, column, _spans(
                        a, b, g[before] - 1, h[after], (low, start),
                        (end, high))


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

