"""Exhaustive verification sweeps over finite pair ranges.

Every sweep here is exact and has one production path. Pair sweeps and the
blend lemma at a constant lambda run on the interval engine (labelled
"vector"): it walks the rows of a range; within a row the weights are
constant on a few intervals of the column's reduced coordinate, on each of
which every form is an integer quadratic, so it works in Python ints at
O(rows) cost at any coordinate size. An mbound sweep reads no form: it
counts each cell's pairs over the whole range from its region (_regions),
at O(cells x period) cost, and walks rows only from the first until its
violation cap is full. The triangle gap is a quadratic in z
per pair (x, y). The per-pair pair sweep (_sweep_scalar) is kept as the
reference the tests compare the interval engine against. Reports over
disjoint ranges merge associatively and commutatively, so partitioned runs
reproduce the single-run report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, islice, product, repeat
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import weights
from .arith import WIDTH_LIMIT, check_width, format_rational
from .collatz import DEFAULT_CAP, accel_T
from .framework import (
    BRANCH_FIRST,
    BRANCH_MIRRORED,
    ConditionId,
    ConditionParams,
    LambdaSpec,
    check_condition,
    lhs,
    symmetrize,
    weighted_lhs,
)
from .weights import (
    CASE_BY_LABEL,
    CASE_ORDER,
    CELL_BOUNDS,
    CELL_CASES,
    CELL_FORMS,
    DIAGONAL,
    ODD_ODD,
    TALLY_KEYS,
    ParityCase,
    bound_for_key,  # noqa: F401 - perfbench/tracing.py wraps it by name
    cell_weights,
    classify,  # noqa: F401 - perfbench/tracing.py wraps it by name
    locate,
    simplified_lhs,  # noqa: F401 - perfbench/tracing.py wraps it by name
    tally_key,
    weight_vector,
)

DEFAULT_MAX_VIOLATIONS = 10_000
PROGRESS_STRIDE = 10**6

CHECK_LHS = "lhs"
CHECK_BOUNDS = "bounds"
CHECK_SIMPLIFIED = "simplified"
CHECK_CROSS = "cross"
CHECK_MBOUND = "mbound"

QUANTITY_LABELS = {
    CHECK_LHS: "lhs>0",
    CHECK_BOUNDS: "bound-exceeded",
    CHECK_SIMPLIFIED: "simplified>0",
    CHECK_CROSS: "cross-mismatch",
    CHECK_MBOUND: "weight-above-M",
}


@dataclass(frozen=True)
class RangeSpec:
    """Inclusive pair range [x_min, x_max] x [y_min, y_max] with an optional
    parity-case filter."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    cases: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.x_min < 1 or self.y_min < 1:
            raise ValueError("range bounds must be positive integers")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("range must satisfy min <= max on both axes")
        if self.cases is not None:
            object.__setattr__(self, "cases", frozenset(self.cases))

    @classmethod
    def square(cls, n: int, lo: int = 1,
               cases: Optional[Iterable[ParityCase]] = None) -> "RangeSpec":
        return cls(lo, n, lo, n, frozenset(cases) if cases else None)

    def admits(self, case: ParityCase) -> bool:
        return self.cases is None or case in self.cases

    def grid_count(self) -> int:
        return (self.x_max - self.x_min + 1) * (self.y_max - self.y_min + 1)

    def label(self) -> str:
        base = f"x:[{self.x_min},{self.x_max}] y:[{self.y_min},{self.y_max}]"
        if self.cases:
            names = ",".join(sorted(c.label for c in self.cases))
            return f"{base} cases:{names}"
        return base


class Violation(NamedTuple):
    """One failed comparison, with the exact offending value. Triple sweeps
    record the witness midpoint in z. A plain immutable tuple of its fields,
    so that a report builds its rows in bulk when they are read
    (ViolationRows), and lists them in sort_key order."""

    x: int
    y: int
    case: str
    quantity: str
    value: object
    z: Optional[int] = None

    def sort_key(self) -> tuple:
        return (self.x, self.y, self.quantity, self.z if self.z is not None else 0)


class ViolationRows:
    """A report's kept rows, read as a tuple of Violation rows that is built
    on the first read. They are held per row x as (x, n, runs), each run
    (ys, case, quantity, value, z) the rows at the y of a range ys: x's rows
    are the runs' points by y, ties in run order, and the first n of them.
    Writers format the runs without building rows (each)."""

    def __init__(self, groups: Optional[list] = None, count: int = 0) -> None:
        self.groups = [] if groups is None else groups
        self.count = count
        self._rows: Optional[tuple] = None

    def add(self, x: int, n: int, runs: list) -> None:
        self.groups.append((x, n, runs))
        self.count += n
        self._rows = None

    def each(self, items: Callable) -> Iterable:
        """Per row x, its rows' items in order, items(x, run) giving those
        of one run; a row of several runs is put in order by y."""
        for x, n, runs in self.groups:
            if len(runs) == 1:
                yield islice(items(x, runs[0]), n)
                continue
            ys = list(chain.from_iterable(run[0] for run in runs))
            out = list(chain.from_iterable(items(x, run) for run in runs))
            yield map(out.__getitem__, islice(
                sorted(range(len(ys)), key=ys.__getitem__), n))

    def _read(self) -> tuple:
        if self._rows is None:
            row = partial(tuple.__new__, Violation)
            self._rows = tuple(chain.from_iterable(self.each(
                lambda x, run: map(row, zip(repeat(x), run[0],
                                            *map(repeat, run[1:]))))))
        return self._rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self._read())

    def __getitem__(self, index):
        return self._read()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, ViolationRows):
            other = other._read()
        return self._read() == other if isinstance(other, tuple) else NotImplemented

    def __add__(self, other) -> tuple:
        return self._read() + (other._read() if isinstance(other, ViolationRows)
                               else other)

    def __radd__(self, other: tuple) -> tuple:
        return other + self._read()

    def __repr__(self) -> str:
        return repr(self._read())


class _Findings:
    """Counts every violation a sweep finds and keeps the first `cap`; a
    negative cap keeps none."""

    def __init__(self, cap: int) -> None:
        self.cap = max(0, cap)
        self.total = 0
        self.kept = ViolationRows()

    def add_runs(self, x: int, count: int, runs: list) -> None:
        """Count `count` violations of row x, of which `runs` (as
        ViolationRows holds them) are the first."""
        room = self.cap - self.kept.count
        self.total += count
        if room and runs:
            self.kept.add(x, min(room, count), runs)

    def add(self, x: int, y: int, case: str, quantity: str, value,
            z: Optional[int] = None) -> None:
        self.add_runs(x, 1, [(range(y, y + 1), case, quantity, value, z)])


@dataclass
class CaseTally:
    pairs: int = 0
    max_lhs: Optional[int] = None
    bound: Optional[int] = None

    def absorb_value(self, value: int) -> None:
        if self.max_lhs is None or value > self.max_lhs:
            self.max_lhs = value


@dataclass
class VerificationReport:
    """Aggregated sweep outcome; merge_reports sums tallies and re-sorts
    violations. Violation rows given in order are kept as runs of one."""

    op: str
    rng: RangeSpec
    pairs_checked: int
    per_case: dict
    violations: ViolationRows
    violations_total: int
    elapsed_ms: int
    engine: str
    params: dict = field(default_factory=dict)
    max_violations: int = DEFAULT_MAX_VIOLATIONS

    def __post_init__(self) -> None:
        if not isinstance(self.violations, ViolationRows):
            rows = [(x, 1, [(range(y, y + 1), *head)])
                    for x, y, *head in self.violations]
            self.violations = ViolationRows(rows, len(rows))

    @property
    def ok(self) -> bool:
        return self.violations_total == 0


def merge_reports(a: VerificationReport, b: VerificationReport) -> VerificationReport:
    """Combine reports over disjoint ranges of the same sweep: the same op,
    params and case filter. The merged report keeps the smaller violation
    cap, the one at which both heads are known."""
    if a.op != b.op:
        raise ValueError(f"cannot merge {a.op!r} with {b.op!r}")
    if a.params != b.params:
        raise ValueError(f"cannot merge params {a.params} with {b.params}")
    if a.rng.cases != b.rng.cases:
        raise ValueError("cannot merge reports with different case filters")
    per_case: dict[str, CaseTally] = {}
    for src in (a.per_case, b.per_case):
        for key, tal in src.items():
            cur = per_case.get(key)
            if cur is None:
                per_case[key] = CaseTally(tal.pairs, tal.max_lhs, tal.bound)
                continue
            if cur.bound != tal.bound:
                raise ValueError(f"conflicting bounds for cell {key!r}")
            cur.pairs += tal.pairs
            if tal.max_lhs is not None:
                cur.absorb_value(tal.max_lhs)
    cap = min(a.max_violations, b.max_violations)
    violations = sorted(a.violations + b.violations,
                        key=Violation.sort_key)[:cap]
    rng = RangeSpec(min(a.rng.x_min, b.rng.x_min), max(a.rng.x_max, b.rng.x_max),
                    min(a.rng.y_min, b.rng.y_min), max(a.rng.y_max, b.rng.y_max),
                    a.rng.cases)
    return VerificationReport(
        op=a.op, rng=rng, pairs_checked=a.pairs_checked + b.pairs_checked,
        per_case=_sorted_cells(per_case), violations=violations,
        violations_total=a.violations_total + b.violations_total,
        elapsed_ms=a.elapsed_ms + b.elapsed_ms, engine=a.engine,
        params=dict(a.params), max_violations=cap)


def _pair_bound(rng: RangeSpec) -> int:
    """Exact bound on the magnitude of every intermediate of the six-term
    form over this range: all six weights lie in [-2, 2] and distances are
    bounded by the largest map image. Only ranges where it exceeds the arith
    width limit can fail the scalar lhs's width checks, so only those get
    them in the interval engine."""
    n = max(rng.x_max, rng.y_max)
    top = (3 * n + 1) // 2
    dist = max(n, top)
    return 12 * dist * dist


def _sorted_cells(per_case: dict) -> dict:
    return {k: per_case[k] for k in sorted(per_case)}


# --- scalar pair sweep ----------------------------------------------------

def _sweep_scalar(rng: RangeSpec, checks: Sequence[str], m_cap: Fraction,
                  found: _Findings,
                  progress: Optional[Callable[[int], None]]) -> tuple:
    """Pure-Python exact sweep, pair by pair; the reference the interval
    engine must match, which tests run in place of _sweep_vector. Each pair
    is located once; its six-term form is evaluated independently, by
    framework.lhs."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_cross = CHECK_CROSS in checks
    do_m = CHECK_MBOUND in checks
    m_num, m_den = m_cap.numerator, m_cap.denominator

    per_case: dict[str, CaseTally] = {}
    pairs = 0
    done = 0

    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            done += 1
            if progress is not None and done % PROGRESS_STRIDE == 0:
                progress(done)
            cell, k, l = locate(x, y)
            if not rng.admits(CELL_CASES[cell]):
                continue
            pairs += 1
            key = TALLY_KEYS[cell]
            tal = per_case.get(key)
            if tal is None:
                tal = per_case[key] = CaseTally(bound=CELL_BOUNDS[cell])
            tal.pairs += 1

            direct = lhs(weight_vector, accel_T, x, y) if do_lhs else None
            simp = CELL_FORMS[cell](k, l) if do_simp else None
            value = direct if direct is not None else simp
            if value is not None:
                tal.absorb_value(value)

            flags = {}
            if CHECK_LHS in checks and direct > 0:
                flags[CHECK_LHS] = direct
            if do_bounds and direct > tal.bound:
                flags[CHECK_BOUNDS] = direct
            if CHECK_SIMPLIFIED in checks and simp > 0:
                flags[CHECK_SIMPLIFIED] = simp
            if do_cross and direct != simp:
                flags[CHECK_CROSS] = simp - direct
            if do_m:
                worst = max(map(abs, cell_weights(cell, k, l)))
                if worst * m_den > m_num:
                    flags[CHECK_MBOUND] = worst
            for check in sorted(flags, key=QUANTITY_LABELS.get):
                found.add(x, y, key, QUANTITY_LABELS[check], flags[check])

    return pairs, per_case


# --- interval pair sweep ---------------------------------------------------
#
# Fix a row x. Along each parity class of y (y = 1, y = 2l or y = 2l + 1) the
# pair's cell is constant on at most five intervals of l, and its weights on
# at most seven (the diagonal's three points each on its own); T(y) is
# linear in l. So on each interval the six-term form and the cell's closed
# form are integer quadratics in l, and every report field comes from their
# coefficients in Python ints, at any coordinate size.
# Quadratics are kept doubled, as (a, b, c) with 2F(l) = a*l^2 + b*l + c, so
# that their coefficients are integers. The row point is linear in k too
# (x = 2k, T(x) = k; x = 2k + 1, T(x) = 3k + 2; or x = 1), so per cell each
# form is a doubled quadratic in (k, l) that _cell_table fits once per table
# and _in_l reads at row k; the diagonal has one per point d = k - l.
# The interval ends are floor-linear in k, so the pairs of a cell over all
# rows need no walk (see cell regions below): an mbound sweep costs
# O(cells x period), plus the rows its violation cap keeps.

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
          until_full: bool = False) -> None:
    """Walk the rows x of a range and in each the column classes that
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
    for x in range(rng.x_min, rng.x_max + 1):
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


# --- cell regions -----------------------------------------------------------
#
# A row class holds k on [k0, k1] (x = 1 is k = 0 alone) and a column class l
# on [first, last] (_span). Off the odd-odd case a cell's region is that
# rectangle. In an odd-odd row the cell intervals of _odd_odd_spans end at
# floor-linear terms in k, kept as (p, q, r) for floor((p*k + q)/r): first,
# last, k + c, floor((10k - 1)/11) and floor(11k/10). The high cut min(k - 2,
# floor((10k - 1)/11)) is k - 2 up to k = 21 and the other term from there,
# and the low cut max(k + 1, floor(11k/10)) is k + 1 below k = 10 and the
# other term from there. So on the k-segments [1, 9], [10, 20] and [21, oo)
# each interval is [max of its start terms, min of its end terms], and its
# pairs are counted per residue of k modulo the period of those terms (11 for
# the high cells, 10 for the low ones, 1 for the diagonal), on which every
# term is linear in the quotient. A region costs O(period), at any size.

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
    per_case: dict[str, CaseTally] = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    flagged: set = set()
    done = total = 0
    for cell, pick, n in _regions(rng, cases):
        if not n:
            continue
        key = TALLY_KEYS[cell]
        tal = per_case.get(key)
        if tal is None:
            tal = per_case[key] = CaseTally(bound=CELL_BOUNDS[cell])
        tal.pairs += n
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


def _sweep_vector(rng: RangeSpec, checks: Sequence[str], m_cap: Fraction,
                  found: _Findings,
                  progress: Optional[Callable[[int], None]]) -> tuple:
    """Sweep the cell intervals of every row (_walk) and read each check off
    the interval's quadratics: counts are interval lengths, maxima lie at
    the ends or next to the vertex, and a comparison holds on at most two
    ranges (_positive). Both forms are read the same way at the row's k:
    the direct form from _direct_table (CELL_WEIGHTS alone), the closed
    form from _closed_table (CELL_FORMS alone), so cross
    compares two independent derivations. Where _pair_bound exceeds the
    width limit, the direct form gets the width checks of framework.lhs.
    The mbound check, which m_bound_sweep asks for alone, reads no form and
    runs on the cell regions instead (_sweep_mbound)."""
    if CHECK_MBOUND in checks:
        return _sweep_mbound(rng, m_cap, found, progress)
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_direct = CHECK_LHS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_simp_check = CHECK_SIMPLIFIED in checks
    do_cross = CHECK_CROSS in checks
    checked = _pair_bound(rng) > WIDTH_LIMIT
    table = _direct_table(weights.CELL_WEIGHTS)
    closed = _closed_table(CELL_FORMS) if do_simp else None
    per_case: dict[str, CaseTally] = {}
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]

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
        if checked:
            terms = _terms(row, column)
        pairs = 0
        flags = []
        for cell, lo, hi in spans:
            n = hi - lo + 1
            pairs += n
            pick = k - lo + 1 if cell == DIAGONAL else None  # by d = k - l
            entry = table[cell] if pick is None else table[cell][pick]
            key = TALLY_KEYS[cell]
            tal = per_case.get(key)
            if tal is None:
                tal = per_case[key] = CaseTally(bound=CELL_BOUNDS[cell])
            tal.pairs += n
            if do_lhs:
                direct = _in_l(entry, kk)
                if checked:
                    _check_widths(cell_weights(cell, k, lo), terms, direct,
                                  lo, hi)
                top = _top(direct, lo, hi)
                tal.absorb_value(top // 2)
                if do_direct and top > 0:
                    flags.append(above(key, CHECK_LHS, direct, 0, lo, hi))
                if do_bounds and top > 2 * tal.bound:
                    flags.append(above(key, CHECK_BOUNDS, direct,
                                       2 * tal.bound, lo, hi))
            if do_simp:
                simp = _in_l(closed[cell] if pick is None
                             else closed[cell][pick], kk)
                if do_simp_check:
                    top = _top(simp, lo, hi)
                    if not do_lhs:
                        tal.absorb_value(top // 2)
                    if top > 0:
                        flags.append(above(key, CHECK_SIMPLIFIED, simp, 0,
                                           lo, hi))
            if do_cross and simp != direct:
                diff = tuple(s - d for s, d in zip(simp, direct))
                flags.append((key, QUANTITY_LABELS[CHECK_CROSS],
                              _nonzero(diff, lo, hi),
                              lambda l, q=diff: _at(q, l) // 2))
        return pairs, flags

    _walk(rng, cases, visit, found, progress)
    pairs = sum(t.pairs for t in per_case.values())
    return pairs, per_case


def _blend_visit(lam: Fraction, ikey: str, nkey: str, checked: bool) -> Callable:
    """A _walk visitor for the blend lemma at a constant lambda = p/q, scaled
    by q: the six-term form with the blended weights (q-p)*w + p*mirror
    against (q-p)*lhs(x, y) + p*lhs(y, x). The cell of (y, x) is constant on
    the same intervals as that of (x, y), since transposing swaps the low and
    high odd-odd gates."""
    p, q = lam.numerator, lam.denominator
    co = q - p

    def visit(x, k, row, column, spans) -> tuple:
        terms, mirrored = _terms(row, column), _terms(column, row)
        basis, mirror_basis = _basis(terms), _basis(mirrored)
        pairs = 0
        flags = []
        for cell, lo, hi in spans:
            pairs += hi - lo + 1
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
            flags.append((ikey, "lemma2-identity", _nonzero(diff, lo, hi),
                          lambda l, g=diff: Fraction(_at(g, l) // 2, q)))
            if _top(left, lo, hi) > 0:
                flags.append((nkey, "lemma2-positive",
                              _positive(*left, lo, hi),
                              lambda l, g=left: Fraction(_at(g, l) // 2, q)))
        return pairs, flags

    return visit


def _run_pair_sweep(op: str, rng: RangeSpec, checks: Sequence[str],
                    m_cap: Fraction = Fraction(2),
                    max_violations: int = DEFAULT_MAX_VIOLATIONS,
                    progress: Optional[Callable[[int], None]] = None
                    ) -> VerificationReport:
    """One pair sweep, on the interval engine (labelled "vector")."""
    started = time.monotonic()
    found = _Findings(max_violations)
    pairs, per_case = _sweep_vector(rng, checks, m_cap, found, progress)
    return VerificationReport(
        op=op, rng=rng, pairs_checked=pairs, per_case=_sorted_cells(per_case),
        violations=found.kept, violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000), engine="vector",
        params={"checks": "+".join(checks), "M": format_rational(m_cap)},
        max_violations=max_violations)


def verify_pseudocontraction(rng: RangeSpec, *, bounds: bool = True,
                             max_violations: int = DEFAULT_MAX_VIOLATIONS,
                             progress: Optional[Callable[[int], None]] = None
                             ) -> VerificationReport:
    """Check the contraction inequality lhs <= 0 (and, by default, the
    sharpened per-case bounds) for every pair in range."""
    checks = (CHECK_LHS, CHECK_BOUNDS) if bounds else (CHECK_LHS,)
    return _run_pair_sweep("verify", rng, checks,
                           max_violations=max_violations, progress=progress)


def verify_simplified(rng: RangeSpec, *,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> VerificationReport:
    """Check the per-case closed forms are <= 0 for every pair in range."""
    return _run_pair_sweep("verify-simplified", rng, (CHECK_SIMPLIFIED,),
                           max_violations=max_violations, progress=progress)


def cross_check_simplified(rng: RangeSpec, *,
                           max_violations: int = DEFAULT_MAX_VIOLATIONS,
                           progress: Optional[Callable[[int], None]] = None
                           ) -> VerificationReport:
    """Assert the closed forms equal the direct six-term evaluation on every
    pair (zero tolerance)."""
    return _run_pair_sweep("cross-check", rng, (CHECK_CROSS,),
                           max_violations=max_violations, progress=progress)


def m_bound_sweep(rng: RangeSpec, m_cap: Fraction = Fraction(2), *,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> VerificationReport:
    """Check |w| <= M for all six raw weights over every pair in range."""
    return _run_pair_sweep("m-bound", rng, (CHECK_MBOUND,), m_cap=m_cap,
                           max_violations=max_violations, progress=progress)


# --- lemma sweeps -----------------------------------------------------------

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
        key = f"lemma1:theta={format_rational(th)}"
        note(key, triples)
        if p >= 0:
            # gap = theta*d(x,y)^2 >= 0 holds identically; z plays no part.
            continue
        found = _Findings(max_violations)
        passes.append(found)
        if gap_fails is None:
            gap_fails = [(x, y, q, _positive(*q, lo, hi))
                         for x, forms in _gap_rows(lo, hi)
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
            _walk(rng, range(len(CASE_ORDER)),
                  _blend_visit(spec.constant, ikey, nkey, checked), found)
        else:
            for x in range(rng.x_min, rng.x_max + 1):
                for y in range(rng.y_min, rng.y_max + 1):
                    lam_v = spec(x, y)
                    blended = symmetrize(weight_vector, spec, x, y)
                    left = weighted_lhs(blended, accel_T, x, y)
                    right = ((1 - lam_v) * lhs(weight_vector, accel_T, x, y)
                             + lam_v * lhs(weight_vector, accel_T, y, x))
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
        params={"thetas": ",".join(format_rational(Fraction(t)) for t in thetas),
                "lambdas": ";".join(s.label for s in specs)},
        max_violations=max_violations)


# --- condition coverage ------------------------------------------------------

COVERAGE_KEYS = tuple(
    [c.label for c in CASE_ORDER if c is not ParityCase.ODD_ODD]
    + ["odd-odd:x>=y", "odd-odd:x<y"]
)

_WITNESS_SET_CAP = 64


@dataclass
class CoverageCell:
    """Per-cell tally of condition outcomes with exemplars and the exact
    quantities observed on the successful branch."""

    pairs: int = 0
    holds_first: int = 0
    holds_mirrored: int = 0
    fails: int = 0
    example_hold: Optional[tuple] = None
    example_fail: Optional[tuple] = None
    weight_tuples: set = field(default_factory=set)
    ratios: set = field(default_factory=set)
    b_sums: set = field(default_factory=set)
    truncated: bool = False

    def _note_set(self, target: set, value) -> None:
        if value is None:
            return
        if len(target) >= _WITNESS_SET_CAP and value not in target:
            self.truncated = True
            return
        target.add(value)


@dataclass
class ConditionCoverageReport:
    """Where a condition system holds or fails over a range, cell by cell."""

    kind: ConditionId
    rng: RangeSpec
    lam_label: str
    A: Fraction
    B: Optional[Fraction]
    M: Optional[Fraction]
    corrected_c4: bool
    m_lambda: bool
    pairs_checked: int
    cells: dict
    holds_total: int
    fails_total: int
    m_violations: Optional[int]
    m_lambda_violations: Optional[int]
    elapsed_ms: int


def _signatures(rng: RangeSpec, lam: Optional[LambdaSpec] = None,
                progress: Optional[Callable[[int], None]] = None) -> dict:
    """The pair signatures of a range: (coverage key, W(x, y) row, W(y, x)
    row), plus (lambda(x, y), lambda(y, x)) when `lam` is given, mapped to
    [pairs, first x, first y]. A condition's outcome at a pair depends only
    on its signature, and the table lists signatures in the row-major order
    of their first pairs. A constant lambda adds the same two values to every
    key, without a call per pair."""
    table: dict = {}
    const = None if lam is None else lam.constant
    pairs = 0
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            cell, k, l = locate(x, y)
            case = CELL_CASES[cell]
            if not rng.admits(case):
                continue
            pairs += 1
            if progress is not None and pairs % PROGRESS_STRIDE == 0:
                progress(pairs)
            key = (case.label if case is not ParityCase.ODD_ODD
                   else "odd-odd:x>=y" if x >= y else "odd-odd:x<y",
                   cell_weights(cell, k, l), cell_weights(*locate(y, x)))
            if const is not None:
                key += (const, const)
            elif lam is not None:
                key += (lam(x, y), lam(y, x))
            entry = table.get(key)
            if entry is None:
                table[key] = [1, x, y]
            else:
                entry[0] += 1
    return table


def condition_coverage(rng: RangeSpec, params: ConditionParams,
                       kind: ConditionId, *, corrected_c4: bool = False,
                       m_lambda: bool = False,
                       progress: Optional[Callable[[int], None]] = None
                       ) -> ConditionCoverageReport:
    """Evaluate one condition over a range and tally per cell.

    The odd-odd case is split by x >= y versus x < y because the two sides
    behave differently under the explicit weight system. The condition is
    evaluated once per pair signature (_signatures), at its first pair, and
    counted for all its pairs; exemplars and witness sets are taken in the
    order pairs first reach each signature, as a per-pair pass would.
    """
    started = time.monotonic()
    cells = {key: CoverageCell() for key in COVERAGE_KEYS}
    pairs = 0
    holds_total = fails_total = 0
    m_viol = 0 if kind.theorem == 3 and kind.number == 5 else None
    ml_viol = 0 if m_lambda and kind.theorem == 3 and kind.number == 5 else None

    for (label, wxy, *_), (count, x, y) in _signatures(
            rng, params.lam, progress).items():
        outcome = check_condition(kind, weight_vector, params, x, y,
                                  corrected_c4=corrected_c4, m_lambda=m_lambda)
        wit = outcome.witnesses
        cell = cells[label]
        cell.pairs += count
        pairs += count
        if outcome.holds:
            holds_total += count
            if outcome.branch == BRANCH_MIRRORED:
                cell.holds_mirrored += count
            else:
                cell.holds_first += count
            if cell.example_hold is None:
                cell.example_hold = (x, y)
            if kind.number == 5:
                side = "first" if outcome.branch == BRANCH_FIRST else "mirror"
                cell._note_set(cell.weight_tuples, wxy)
                cell._note_set(cell.ratios, wit.get(f"{side}_ratio"))
                cell._note_set(cell.b_sums, wit.get(f"{side}_b_sum"))
        else:
            fails_total += count
            cell.fails += count
            if cell.example_fail is None:
                cell.example_fail = (x, y)
        if m_viol is not None and not wit.get("m_ok", True):
            m_viol += count
        if ml_viol is not None and not wit.get("m_lambda_ok", True):
            ml_viol += count

    cells = {k: v for k, v in cells.items() if v.pairs > 0}
    return ConditionCoverageReport(
        kind=kind, rng=rng, lam_label=params.lam.label, A=params.A,
        B=params.B, M=params.M, corrected_c4=corrected_c4, m_lambda=m_lambda,
        pairs_checked=pairs, cells=cells, holds_total=holds_total,
        fails_total=fails_total, m_violations=m_viol,
        m_lambda_violations=ml_viol,
        elapsed_ms=int((time.monotonic() - started) * 1000))


# --- lambda grid search ------------------------------------------------------

_SEARCH_GROUPS = (
    (ParityCase.ONE_ONE,),
    (ParityCase.ONE_EVEN, ParityCase.EVEN_ONE),
    (ParityCase.ONE_ODD, ParityCase.ODD_ONE),
    (ParityCase.EVEN_EVEN,),
    (ParityCase.EVEN_ODD, ParityCase.ODD_EVEN),
    (ParityCase.ODD_ODD,),
)

DEFAULT_SEARCH_BUDGET = 100_000


@dataclass
class LambdaSearchResult:
    """Best per-case lambda assignment found on a finite grid."""

    q: int
    a_grid: tuple
    kind: ConditionId
    rng: RangeSpec
    budget: int
    assignments_scored: int
    budget_exhausted: bool
    best_lambda: dict
    best_a: Fraction
    covered: int
    total: int
    cell_coverage: dict
    irreducible_cells: tuple
    elapsed_ms: int

    @property
    def coverage(self) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.covered, self.total)


def _pairwise_lambda_spec(x: int, y: int, v_xy: Fraction,
                          v_yx: Fraction) -> LambdaSpec:
    def fn(u: int, w: int) -> Fraction:
        if (u, w) == (x, y):
            return v_xy
        if (u, w) == (y, x):
            return v_yx
        raise AssertionError("lambda queried off the pair under test")
    return LambdaSpec(fn, f"pair({x},{y})")


def search_lambda(rng: RangeSpec, q: int, a_grid: Sequence, kind: ConditionId,
                  *, B: Optional[Fraction] = None, M: Optional[Fraction] = None,
                  budget: int = DEFAULT_SEARCH_BUDGET,
                  corrected_c4: bool = False,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> LambdaSearchResult:
    """Search per-case lambda values from {0, 1/q, ..., 1} (q = 0 forces 0)
    maximizing the number of pairs satisfying the condition.

    A pair only sees lambda through its own case and the transposed case, so
    outcomes are tabulated per case against the (value, transposed value, A)
    triple, one condition evaluation per pair signature (_signatures) and
    triple. The coverage of an assignment is then a sum over the coupled
    case groups (_SEARCH_GROUPS) of terms that read only the group's own
    values, so each group's best values are chosen on their own, exactly.
    Ties break to the lexicographically smallest (lambda vector, A). When
    the full product grid exceeds the budget, each group keeps only its top
    candidates (the result is marked budget_exhausted); the top one is always
    kept, so the answer is the same, and assignments_scored counts the
    product of the candidates kept.
    """
    started = time.monotonic()
    if q < 0:
        raise ValueError(f"grid denominator must be >= 0, got {q}")
    if kind.theorem == 3 and kind.number == 5 and (B is None or M is None):
        raise ValueError("family-3 condition 5 requires both B and M")
    a_values = sorted({Fraction(a) for a in a_grid})
    if not a_values:
        raise ValueError("A grid must not be empty")
    for a in a_values:
        if not 0 < a < 1:
            raise ValueError(f"A must lie in (0, 1), got {format_rational(a)}")
    values = [Fraction(i, q) for i in range(q + 1)] if q >= 1 else [Fraction(0)]

    # sat[case][(v_xy, v_yx, A)] = pairs of that case satisfied under those
    # lambda values; total[case] = pairs of that case in range. A case that
    # is its own transpose gives both values one entry of the assignment,
    # so only v_xy == v_yx is realizable there.
    sat: dict = {c: {} for c in CASE_ORDER}
    total: dict = {c: 0 for c in CASE_ORDER}
    diagonal = [(v, v) for v in values]
    square = list(product(values, values))
    for (label, *_), (count, x, y) in _signatures(
            rng, progress=progress).items():
        case = CASE_BY_LABEL[label.split(":")[0]]
        total[case] += count
        realizable = diagonal if case.transpose is case else square
        for (v1, v2), a in product(realizable, a_values):
            params = ConditionParams(_pairwise_lambda_spec(x, y, v1, v2), a,
                                     B, M)
            if check_condition(kind, weight_vector, params, x, y,
                               corrected_c4=corrected_c4).holds:
                sat[case][v1, v2, a] = sat[case].get((v1, v2, a), 0) + count
    pairs = sum(total.values())
    present = [c for c in CASE_ORDER if total[c] > 0]

    budget_exhausted = (len(values) ** 9) * len(a_values) > budget
    keep = max(1, int(max(1, budget // len(a_values))
                      ** (1.0 / len(_SEARCH_GROUPS))))
    ranked = []
    scored = 0
    for a in a_values:
        assign = {}
        cov = 0
        kept = 1
        for group in _SEARCH_GROUPS:
            if len(group) == 1:
                c = group[0]
                combos = [((v,), sat[c].get((v, v, a), 0)) for v in values]
            else:
                c, tc = group
                combos = [((v1, v2),
                           sat[c].get((v1, v2, a), 0) + sat[tc].get((v2, v1, a), 0))
                          for v1 in values for v2 in values]
            vals, score = min(combos, key=lambda cv: (-cv[1], cv[0]))
            assign.update(zip(group, vals))
            cov += score
            kept *= min(keep, len(combos)) if budget_exhausted else len(combos)
        scored += kept
        ranked.append(((-cov, tuple(assign[c] for c in CASE_ORDER), a), assign))
    (neg_cov, _, best_a), best_assign = min(ranked, key=itemgetter(0))

    cell_coverage = {}
    for c in present:
        got = sat[c].get((best_assign[c], best_assign[c.transpose], best_a), 0)
        cell_coverage[c.label] = (got, total[c])
    # sat holds realizable lambda pairs only: a cell is irreducible when no
    # grid assignment covers all its pairs
    irreducible = tuple(c.label for c in present
                        if max(sat[c].values(), default=0) < total[c])

    return LambdaSearchResult(
        q=q, a_grid=tuple(a_values), kind=kind, rng=rng, budget=budget,
        assignments_scored=scored, budget_exhausted=budget_exhausted,
        best_lambda={c.label: best_assign[c] for c in CASE_ORDER},
        best_a=best_a, covered=-neg_cov, total=pairs,
        cell_coverage=cell_coverage, irreducible_cells=irreducible,
        elapsed_ms=int((time.monotonic() - started) * 1000))


# --- orbit decay sweep -------------------------------------------------------

def orbit_decay_sweep(seed_min: int, seed_max: int, params: ConditionParams, *,
                      W=weight_vector, dedup: bool = True,
                      telescoped: bool = True, cap: int = DEFAULT_CAP,
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> VerificationReport:
    """Check geometric decay of squared step distances along T-orbits.

    For every seed in [seed_min, seed_max], each orbit step whose pair
    satisfies condition (5) (either branch) must shrink: step_sq <= A *
    prev_sq, exactly. With dedup=True (the default) each orbit is walked
    only until it first drops below its seed; the tail coincides with the
    orbit of a smaller seed, so the union over ascending seeds still covers
    every step of every full orbit. Counts are over (seed, step) visits.

    The cumulative bound step_sq(n) <= A^n * step_sq(0) is checked on the
    longest orbit prefix whose premise holds at every step (in dedup mode,
    within the truncated walk).
    """
    started = time.monotonic()
    if seed_min < 1 or seed_min > seed_max:
        raise ValueError("need 1 <= seed_min <= seed_max")
    kind = ConditionId(1, 5)
    a_num, a_den = params.A.numerator, params.A.denominator
    memo: dict = {}
    per_case = {
        "decay-steps": CaseTally(),
        "premise-held": CaseTally(),
        "premise-failed": CaseTally(),
        "telescoped-steps": CaseTally(),
    }
    found = _Findings(max_violations)
    const = params.lam.constant

    def premise(px: int, py: int) -> bool:
        # the outcome depends only on both weight rows and lambda values; a
        # constant lambda adds its value without a call per step
        key = (W(px, py).as_tuple(), W(py, px).as_tuple()) + (
            (const, const) if const is not None
            else (params.lam(px, py), params.lam(py, px)))
        holds = memo.get(key)
        if holds is None:
            holds = check_condition(kind, W, params, px, py).holds
            memo[key] = holds
        return holds

    steps_done = 0
    for seed in range(seed_min, seed_max + 1):
        prev = seed
        cur = accel_T(seed)
        prev_sq = (cur - prev) ** 2
        first_sq = prev_sq
        prefix_intact = True
        pw_num, pw_den = 1, 1
        n = 0
        while n < cap:
            if cur == prev:
                break  # fixed point: no recorded step to bound
            nxt = accel_T(cur)
            step_sq = (nxt - cur) ** 2
            n += 1
            steps_done += 1
            per_case["decay-steps"].pairs += 1
            if premise(prev, cur):
                per_case["premise-held"].pairs += 1
                if a_den * step_sq > a_num * prev_sq:
                    found.add(prev, cur, tally_key(prev, cur), "decay",
                              Fraction(a_den * step_sq - a_num * prev_sq, a_den))
                if telescoped and prefix_intact:
                    pw_num *= a_num
                    pw_den *= a_den
                    per_case["telescoped-steps"].pairs += 1
                    if pw_den * step_sq > pw_num * first_sq:
                        found.add(prev, cur, tally_key(prev, cur), "telescoped",
                                  Fraction(pw_den * step_sq - pw_num * first_sq,
                                           pw_den))
            else:
                per_case["premise-failed"].pairs += 1
                prefix_intact = False
            if dedup and cur < seed:
                break  # the tail is the orbit of a smaller, already-swept seed
            prev, cur, prev_sq = cur, nxt, step_sq
        if progress is not None and seed % 10_000 == 0:
            progress(steps_done)

    return VerificationReport(
        op="orbit-decay", rng=RangeSpec(seed_min, seed_max, 1, 1),
        pairs_checked=steps_done, per_case=_sorted_cells(per_case),
        violations=sorted(found.kept, key=Violation.sort_key),
        violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine="dedup" if dedup else "full",
        params={"A": format_rational(params.A), "lambda": params.lam.label,
                "telescoped": str(telescoped)},
        max_violations=max_violations)
