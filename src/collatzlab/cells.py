"""Cell algebra of the interval engine: each cell's forms as doubled
quadratics in the reduced coordinates, the quadratic helpers that read
them, and the row walk.

Fix a row x. Along each parity class of y (y = 1, y = 2l or y = 2l + 1) the
pair's cell is constant on at most five intervals of l, and its weights on
at most seven (the diagonal's three points each on its own); T(y) is linear
in l. So on each interval the six-term form and the cell's closed form are
integer quadratics in l, and every report field comes from their
coefficients in Python ints, at any coordinate size. Quadratics are kept
doubled, as (a, b, c) with 2F(l) = a*l^2 + b*l + c, so that their
coefficients are integers. The row point is linear in k too (x = 2k, T(x) =
k; x = 2k + 1, T(x) = 3k + 2; or x = 1), so per cell each form is a doubled
quadratic in (k, l) that _cell_table fits once per table and _in_l reads at
row k; the diagonal has one per point d = k - l. The interval ends are
floor-linear in k, so a sweep reads whole cell regions (regions.py) and
walks (_walk) only the rows that flag.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

from .arith import check_width
from .reports import PROGRESS_STRIDE, RangeSpec, _Findings
from .weights import (
    CASE_ORDER,
    CELL_CASES,
    DIAGONAL,
    ODD_ODD,
    TALLY_KEYS,
    cell_weights,
)

# The point of class c (1, even, odd) at reduced coordinate n, as
# (s, p, ts, tp): the value s + p*n, with T at it ts + tp*n. Class 0 is the
# value 1, at n = 0. _CELL_CLASSES holds each cell's row and column class.
_POINTS = ((1, 0, 1, 0), (0, 2, 0, 1), (1, 2, 2, 3))
_CELL_CLASSES = tuple(divmod(CASE_ORDER.index(case), 3) for case in CELL_CASES)


def _span(cls: int, lo: int, hi: int) -> tuple:
    """The reduced coordinates of the values of class cls (1, even, odd; as
    _POINTS) in [lo, hi], as (first, last); empty when first > last."""
    if cls == 0:
        return 0, 0 if lo == 1 else -1
    if cls == 1:
        first, last = (lo + 1) // 2, hi // 2
    else:
        first, last = lo // 2, (hi - 1) // 2
    return max(first, 1), last


def _columns(y_min: int, y_max: int, cases: Iterable[int]) -> tuple:
    """Per row class, the column classes that `cases` (indices into
    CASE_ORDER) admits with it, as (case, column, first l, last l); the
    column is the point of its class (_POINTS) in l."""
    out: tuple = ([], [], [])
    for case in sorted(cases):
        first, last = _span(case % 3, y_min, y_max)
        if first <= last:
            out[case // 3].append((case, _POINTS[case % 3], first, last))
    return out


def _odd_odd_spans(k: int, first: int, last: int):
    """The odd-odd cells of row k along l in [first, last], in l order, as
    (cell, lo, hi): high-deep, high-band, the three diagonal points each on
    its own (beta = k - l varies there), low-band and low-deep. The cuts
    solve the gates of odd_odd_cell for l."""
    cells = (DIAGONAL + 2, DIAGONAL + 1, DIAGONAL, DIAGONAL, DIAGONAL,
             DIAGONAL - 1, DIAGONAL - 2)
    ends = (min(k - 2, (10 * k - 1) // 11), k - 2, k - 1, k, k + 1,
            max(k + 1, (11 * k + 10) // 10 - 1), last)
    lo = first
    for cell, end in zip(cells, ends):
        hi = min(end, last)
        if lo <= hi:
            yield cell, lo, hi
        lo = max(lo, end + 1)


def _terms(u: tuple, v: tuple) -> tuple:
    """The six distances of the form at the pair (u, v), in weight order, as
    (s, p) for s + p*l; u and v are points (ws, wp, ts, tp) as _columns
    gives them, a row being one with wp = tp = 0."""
    us, up, uts, utp = u
    vs, vp, vts, vtp = v
    return ((uts - vts, utp - vtp), (us - vts, up - vtp),
            (uts - vs, utp - vp), (us - vs, up - vp),
            (us - uts, up - utp), (vs - vts, vp - vtp))


def _basis(terms: tuple) -> tuple:
    """Per weight, the doubled quadratic of its term: 2(s + p*l)^2."""
    return ([2 * p * p for _, p in terms], [4 * s * p for s, p in terms],
            [2 * s * s for s, _ in terms])


def _form(w: Sequence, basis: tuple) -> tuple:
    """The six-term form with weights w, as a doubled quadratic."""
    return tuple(sum(map(mul, w, coefs)) for coefs in basis)


def _fit(f: Callable, what: str) -> tuple:
    """The doubled (a, b0, b1, c0, c1, c2) of a form with 2f(k, l) = a*l^2 +
    (b0 + b1*k)*l + c0 + (c1 + c2*k)*k, read off {0, 1, 2}^2; one that is not
    such a quadratic raises on {0, ..., 4}^2 or beyond 2^64."""
    f00, f01, f02, f10, f11, f20 = (
        f(k, l) for k, l in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)))
    a, c2 = f02 - 2 * f01 + f00, f20 - 2 * f10 + f00
    b0, c1 = 2 * (f01 - f00) - a, 2 * (f10 - f00) - c2
    fit = (a, b0, 2 * (f11 - f00) - a - b0 - c1 - c2, 2 * f00, c1, c2)
    for k, l in chain(product(range(5), repeat=2), [(2**64 + 3, 2**65 + 7)]):
        if _at(_in_l(fit, k), l) != 2 * f(k, l):
            raise ValueError(f"the form of {what} is not quadratic in (k, l)")
    return fit


def _in_l(e: tuple, k: int) -> tuple:
    """A table entry's form (_fit) at row k, as a doubled quadratic in l."""
    return e[0], e[1] + e[2] * k, e[3] + (e[4] + e[5] * k) * k


def _cell_table(form: Callable, tail: Callable = lambda cell, d: ()) -> tuple:
    """Per cell, form(cell, k, l) fitted with None for the reduced coordinate
    of a 1, then tail(cell, d); the diagonal has one per k - l in (-1, 0, 1)."""
    def fit(cell: int, d: int) -> tuple:
        rows, columns = _CELL_CLASSES[cell]
        return _fit(lambda k, l: form(cell, k if rows else None, (
            k - d if cell == DIAGONAL else l) if columns else None),
            TALLY_KEYS[cell]) + tail(cell, d)
    return tuple(tuple(fit(cell, d) for d in (-1, 0, 1)) if cell == DIAGONAL
                 else fit(cell, 0) for cell in range(len(CELL_CASES)))


@lru_cache(maxsize=8)
def _direct_table(rows: tuple) -> tuple:
    """The six-term form per cell (_cell_table) of the weight table `rows`
    (weights.CELL_WEIGHTS, which cell_weights reads), then its largest |w|."""
    def six_term(cell, k, l):
        (s, p, ts, tp), column = (_POINTS[c] for c in _CELL_CLASSES[cell])
        k, l = k or 0, l or 0  # a 1 has no reduced coordinate
        terms = _terms((s + p * k, 0, ts + tp * k, 0), column)
        return sum(w * (u + v * l) ** 2
                   for w, (u, v) in zip(cell_weights(cell, k, l), terms))
    return _cell_table(six_term, lambda cell, d: (
        max(map(abs, cell_weights(cell, d, 0))),))


@lru_cache(maxsize=8)
def _closed_table(forms: tuple) -> tuple:
    """The closed form per cell (_cell_table) of `forms` (CELL_FORMS)."""
    return _cell_table(lambda cell, k, l: forms[cell](k, l))


def _at(q: tuple, l: int) -> int:
    a, b, c = q
    return (a * l + b) * l + c


def _top(q: tuple, lo: int, hi: int) -> int:
    """The largest value of a quadratic on the integers of [lo, hi]: at an
    end, or, where it is concave, at one of the two integers around the
    vertex, or at the end nearest the vertex when both lie outside."""
    a, b, c = q
    if a < 0:
        m = -b // (2 * a)  # floor of the vertex
        if lo <= m < hi:
            return max((a * m + b) * m + c, (a * m + a + b) * (m + 1) + c)
        l = lo if m < lo else hi
        return (a * l + b) * l + c
    return max((a * lo + b) * lo + c, (a * hi + b) * hi + c)


def _positive(a: int, b: int, c: int, lo: int, hi: int) -> list:
    """The integers l of [lo, hi] where a*l^2 + b*l + c > 0, as at most two
    sorted inclusive ranges. On each side of the vertex the quadratic is
    monotone, so its positive part there is a prefix or a suffix, whose end
    a binary search finds."""
    if a:
        m = -b // (2 * a)  # floor of the vertex
        pieces = ((lo, min(hi, m)), (max(lo, m + 1), hi))
    else:
        pieces = ((lo, hi),)
    out: list = []
    for p, q in pieces:
        if p > q:
            continue
        head = (a * p + b) * p + c > 0
        if head == ((a * q + b) * q + c > 0):
            if head:
                out.append((p, q))
            continue
        # one end is positive: search for the last l on its side
        inside, outside = (p, q) if head else (q, p)
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if (a * mid + b) * mid + c > 0:
                inside = mid
            else:
                outside = mid
        out.append((p, inside) if head else (inside, q))
    if len(out) == 2 and out[0][1] + 1 == out[1][0]:
        out = [(out[0][0], out[1][1])]
    return out


def _nonzero(q: tuple, lo: int, hi: int) -> list:
    """The integers of [lo, hi] where a quadratic is not 0, as sorted ranges."""
    a, b, c = q
    if not (a or b or c):
        return []
    return sorted(_positive(a, b, c, lo, hi) + _positive(-a, -b, -c, lo, hi))


def _check_widths(w: Sequence, terms: tuple, q: tuple, lo: int,
                  hi: int) -> None:
    """The width checks of the scalar lhs over an interval: each term is
    largest at an end (a square is convex in l), the form at an end or next
    to its vertex."""
    for wi, (s, p) in zip(w, terms):
        check_width(abs(wi) * max((s + p * lo) ** 2, (s + p * hi) ** 2),
                    "six-term product")
    neg = tuple(-v for v in q)
    check_width(max(_top(q, lo, hi), _top(neg, lo, hi)) // 2, "six-term sum")


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


def _walk(rng: RangeSpec, cases: Iterable[int], visit: Callable,
          found: _Findings,
          progress: Optional[Callable[[int], None]] = None,
          until_full: bool = False, rows: Optional[Iterable[int]] = None
          ) -> None:
    """Walk the rows x of a range (or the ascending rows `rows` of it) and
    in each the column classes that
    `cases` admits with the row's class. visit(x, k, row, column, spans)
    handles one of those: row and column are points as _terms reads them,
    spans the cell intervals (cell, lo, hi) in l order. It returns the pairs
    it covered and its flags as (key, quantity, ranges of l, value): a
    constant, or a function of l where it changes along the range.
    Every flag is counted; the first `found.cap` in report order (x, y,
    quantity) are kept as runs of y (ViolationRows), a range of l with a
    constant value as one run and any other as runs of one. A row keeps
    only the runs up to the y at which the cap is full (_head_runs), and
    builds no row. With until_full the walk ends after the row that fills
    the cap."""
    columns = _columns(rng.y_min, rng.y_max, cases)
    done = reported = 0
    for x in range(rng.x_min, rng.x_max + 1) if rows is None else rows:
        # row class as in _columns, k (None for x = 1) and T(x)
        k = x >> 1
        rx, k, tx = ((0, None, 1) if x == 1 else (2, k, 3 * k + 2) if x & 1
                     else (1, k, k))
        row = (x, 0, tx, 0)
        room = found.cap - len(found.kept)
        flagged = 0
        runs: list = []
        for case, column, lo, hi in columns[rx]:
            spans = (_odd_odd_spans(k, lo, hi) if case == ODD_ODD
                     else ((case, lo, hi),))
            pairs, flags = visit(x, k, row, column, spans)
            done += pairs
            ys, yp = column[0], column[1]
            for key, quantity, ranges, value in flags:
                for p, q in ranges:
                    flagged += q - p + 1
                    if room:
                        # the column y = 1 is one point, with yp = 0
                        runs.append((range(ys + yp * p, ys + yp * q + 1,
                                           yp or 1), p, key, quantity, value))
        if flagged:
            if flagged > room and runs:
                runs = _head_runs(runs, room)
            kept: list = []
            for ys, p, key, quantity, value in runs:
                if callable(value):
                    kept += ((range(y, y + 1), key, quantity, value(l), None)
                             for y, l in zip(ys, range(p, p + len(ys))))
                else:
                    kept.append((ys, key, quantity, value, None))
            # in quantity order, the order of one pair's rows at its y
            kept.sort(key=itemgetter(2))
            found.add_runs(x, flagged, kept)
            if until_full and len(found.kept) == found.cap:
                return
        if progress is not None and done - reported >= PROGRESS_STRIDE:
            reported = done
            progress(done)

