"""Cell regions: the pairs of each cell over a whole range, laid out as
spans of k on which both interval ends are single terms; the mbound sweep
that counts them without walking rows; and the row walk over them.

A row class holds k on [k0, k1] (x = 1 is k = 0 alone) and a column class l
on [first, last] (_span). Off the odd-odd case a cell's region is that
rectangle, one span. In an odd-odd row the cells (high-deep, high-band,
the diagonal's three points, low-band and low-deep, in l order) lie
between cuts, the gates of weights.odd_odd_cell solved for l: a cell's
interval is [max(first, T + 1), min(last, U)] for the cut T before it and
the cut U after it (none before the first cell or after the last). The
cuts are k - 2, ..., k + 1 and the high cut min(k - 2, floor((10k -
1)/11)) and low cut max(k + 1, floor(11k/10)); each of those two is one
term on a stretch of k (_REGIONS), so on a stretch every cut is one
floor-linear term in k, kept as (p, q, r) for floor((p*k + q)/r), and
every term rises with k. Then T >= first and T >= last each hold from a
point on that one division finds, and twelve such points, two per cut,
lay out every cell (_cell_spans). A cell's interval is not empty from
where U reaches first to where T reaches last, and on the two bands, from
where their start is at most their end (a fixed k). Inside, it starts at
first until T passes first and ends at U until U reaches last. So a cell's
region is at most three spans (k0, k1, start, end) per stretch, of width
at least 1 throughout (_spans), and a span's pairs are the sums of its
ends over k (_floor_sum), O(r) each. A region costs O(1), at any size.
The rows that a sweep must walk read their intervals off the same spans,
one floor term per end (_row_walk). A region whose flag is a constant (each
of mbound's) carries it, so the walk makes its runs with no call per row
and cell; the other walks' flags come from a visitor.
"""
from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Optional

from . import weights
from .cells import _columns, _direct_table, _entry, _span
from .reports import (
    CHECK_MBOUND,
    QUANTITY_LABELS,
    RangeSpec,
    _Findings,
    _tally,
)
from .weights import CASE_ORDER, DIAGONAL, ODD_ODD, TALLY_KEYS

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
    one per row. Where both ends are lines, the sum of (u - p)*k + v - q + 1
    over the rows, whose (k0 + k1)*n is even."""
    k0, k1, start, end = span
    n = k1 - k0 + 1
    if start[2] == end[2] == 1:
        return (end[0] - start[0]) * (k0 + k1) * n // 2 + (
            end[1] - start[1] + 1) * n
    return _floor_sum(*end, k0, k1) - _floor_sum(*start, k0, k1) + n


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


def _head_runs(runs: list, room: int) -> list:
    """Runs (ys, ...) of a row, ys an ascending range of y, cut after the
    least y by which `room` points are reached; only the flags of one pair
    at that y can go past `room`."""
    def heads(t: int) -> list:
        # each run's points with y <= t
        return [len(range(ys.start, min(ys.stop, t + 1), ys.step))
                for ys, *_ in runs]
    lo = min(run[0][0] for run in runs)
    hi = max(run[0][-1] for run in runs)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(heads(mid)) >= room:
            hi = mid
        else:
            lo = mid + 1
    return [(run[0][:n],) + run[1:] for run, n in zip(runs, heads(lo)) if n]


def _row_walk(regions: Iterable, rows: Iterable[int],
              visit: Optional[Callable], found: _Findings,
              until_full: bool = False) -> None:
    """Walk the ascending rows `rows` over cell regions (cell, pick, row
    class, column, spans) as _cell_spans lays them out. In a row x at k (x
    = 1 is k = 0), each span of its row class that holds k gives its cell
    the interval [start(k), end(k)] of l, and its column the ys of those l.
    Either every region carries a constant flag (key, quantity, value)
    appended, which flags that whole interval, or none does and visit(x,
    k, cell, pick, lo, hi) returns the flags there as (key, quantity,
    ranges of l, value), the value a function of l; never both. The ranges
    of one row need not be in l order. Every flag is counted; the first
    `found.cap` in report order (x, y, quantity) are kept as runs (ys,
    case, quantity, value) of y (ViolationRows): a constant flag's range of
    l as one run, a visitor's as runs of one. Adjacent runs of one constant
    flag (one object, which regions may share) whose ys continue at one
    step are one run, and a row is put in quantity order only where its
    flags hold several quantities. A row keeps only the runs up to the y at
    which the cap is full (_head_runs), and builds no row. With until_full
    the walk ends after the row that fills the cap."""
    # per row class, its spans in l order within a row: cases in order,
    # and the odd-odd cells as _REGIONS lists them
    by_class: tuple = ([], [], [])
    quantities = set()
    for cell, pick, rx, column, spans, *flag in regions:
        flag = flag[0] if flag else None
        quantities.add(None if flag is None else flag[1])
        by_class[rx].extend(
            (k0, k1, *start, *end, column[0], column[1], flag, cell, pick)
            for k0, k1, start, end in spans)
    # a row of one quantity is in report order as it is found
    ordered = len(quantities) == 1 and None not in quantities
    for x in rows:
        k = x >> 1
        room = found.cap - found.kept.count
        flagged = 0
        runs: list = []
        last = None  # the flag of the last run
        for (k0, k1, p, q, r, u, v, w, ys, yp, flag, cell,
             pick) in by_class[0 if x == 1 else 1 + (x & 1)]:
            if not k0 <= k <= k1:
                continue
            lo, hi = (p * k + q) // r, (u * k + v) // w
            if flag is not None:
                flagged += hi - lo + 1
                if room:
                    # the column y = 1 is one point, with yp = 0
                    y0, step = ys + yp * lo, yp or 1
                    if flag is last:
                        run = runs[-1][0]
                        if run.step == step and run[-1] + step == y0:
                            runs[-1] = (range(run.start, ys + yp * hi + 1,
                                              step), *flag)
                            continue
                    runs.append((range(y0, ys + yp * hi + 1, step), *flag))
                    last = flag
                continue
            for key, quantity, ranges, value in visit(x, k, cell, pick, lo,
                                                      hi):
                for lo, hi in ranges:
                    flagged += hi - lo + 1
                    if room:
                        # the run's first l rides along until its values
                        # are read
                        runs.append((range(ys + yp * lo, ys + yp * hi + 1,
                                           yp or 1), key, quantity, value,
                                     lo))
        if flagged:
            if flagged > room and runs:
                runs = _head_runs(runs, room)
            if visit is not None:
                runs = [(range(y, y + 1), key, quantity, value(l))
                        for ys, key, quantity, value, lo in runs
                        for y, l in zip(ys, range(lo, lo + len(ys)))]
            if not ordered:
                # in quantity order, the order of one pair's rows at its y
                runs.sort(key=itemgetter(2))
            found.add_runs(x, flagged, runs)
            if until_full and found.kept.count == found.cap:
                return


def _sweep_mbound(rng: RangeSpec, m_cap: Fraction, found: _Findings) -> tuple:
    """An mbound sweep off the cell regions. A cell's weights are constant
    on it (the diagonal's per d = k - l), so a cell whose largest |w|
    (_direct_table) exceeds M flags every pair of its region: pair counts
    and the flag total are its spans' sums. Only the kept flags are found
    by walking rows over those regions (_row_walk), each carrying its
    constant flag, from x_min until min(cap, total) are kept."""
    # an integer weight exceeds M exactly when it exceeds floor(M)
    m_floor = m_cap.numerator // m_cap.denominator
    table = _direct_table(weights.CELL_WEIGHTS)
    per_case: dict = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    flagged: list = []
    flags: dict = {}
    done = total = 0
    for region in _cell_spans(rng, cases):
        cell, pick, _, _, spans = region
        n = sum(map(_pairs, spans))
        _tally(per_case, cell).pairs += n
        done += n
        top = _entry(table, cell, pick)[6]
        if top > m_floor:
            total += n
            # the diagonal's picks of one value share their flag, so that
            # the walk joins their runs
            flagged.append(region + (flags.setdefault((cell, top), (
                TALLY_KEYS[cell], QUANTITY_LABELS[CHECK_MBOUND], top)),))

    head = _Findings(min(found.cap - len(found.kept), total))
    if head.cap:
        _row_walk(flagged, range(rng.x_min, rng.x_max + 1), None, head,
                  until_full=True)
    found.total += total
    for group in head.kept.groups:
        found.kept.add(*group)
    return done, per_case
