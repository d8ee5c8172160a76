"""Cell algebra of the interval engine: each cell's forms as doubled
quadratics in the reduced coordinates, and the quadratic helpers that read
them.

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
walks only the rows that flag (regions._row_walk).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterable

from .weights import CASE_ORDER, CELL_CASES, DIAGONAL, TALLY_KEYS, cell_weights

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


def _row(x: int) -> tuple:
    """The row x as a point (_POINTS) with wp = tp = 0: (x, 0, T(x), 0)."""
    k = x >> 1
    return x, 0, 1 if x == 1 else 3 * k + 2 if x & 1 else k, 0


def _terms(u: tuple, v: tuple) -> tuple:
    """The six distances of the form at the pair (u, v), in weight order, as
    (s, p) for s + p*l; u and v are points (ws, wp, ts, tp) as _columns
    gives them, a row being one with wp = tp = 0."""
    us, up, uts, utp = u
    vs, vp, vts, vtp = v
    return ((uts - vts, utp - vtp), (us - vts, up - vtp),
            (uts - vs, utp - vp), (us - vs, up - vp),
            (us - uts, up - utp), (vs - vts, vp - vtp))


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


def _swap(e: tuple) -> tuple:
    """The entry (_fit) of g(k, l) = f(l, k) for a table entry e of f."""
    a, b0, b1, c0, c1, c2 = e[:6]
    return c2, c1, b1, c0, b0, a


def _per_pick(make: Callable) -> tuple:
    """A table of make(cell, pick) per cell, which _entry reads: pick is
    the diagonal's d + 1 per k - l = d in (-1, 0, 1), and None off it."""
    return tuple(tuple(make(cell, pick) for pick in range(3))
                 if cell == DIAGONAL else make(cell, None)
                 for cell in range(len(CELL_CASES)))


def _cell_table(form: Callable, tail: Callable = lambda cell, d: ()) -> tuple:
    """Per cell (_per_pick), form(cell, k, l) fitted with None for the
    reduced coordinate of a 1, then tail(cell, d), d = 0 off the diagonal."""
    def fit(cell: int, pick) -> tuple:
        rows, columns = _CELL_CLASSES[cell]
        d = 0 if pick is None else pick - 1
        return _fit(lambda k, l: form(cell, k if rows else None, (
            k - d if cell == DIAGONAL else l) if columns else None),
            TALLY_KEYS[cell]) + tail(cell, d)
    return _per_pick(fit)


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


def _entry(table: tuple, cell: int, pick) -> tuple:
    """A cell's entry of a table (_per_pick); pick is the diagonal's d + 1
    for d = k - l, and None off the diagonal."""
    return table[cell] if pick is None else table[cell][pick]


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

