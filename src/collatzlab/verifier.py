"""Exhaustive verification engines over finite pair ranges.

Every sweep here is exact. The grid engine (numpy) runs on int64 where a
proof, computed in exact integers, shows no intermediate can leave the
int64 range (_pair_bound). Beyond it, far ranges still run on int64: with
each pair's weights fixed at its true cell, every form is a quadratic in the
range base K, evaluated at K = 0, 1 and 2 and compared through its
coefficients, which an exact guard on K makes decisive (_far_base). Python
integers serve only coordinates from 2^58 up, ranges that fail the guard
and ranges past the arith width limit. The scalar engine is the per-pair
reference. Reports over disjoint ranges merge associatively and
commutatively, so partitioned runs reproduce the single-run report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

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
    CASE_ORDER,
    CELL_BOUNDS,
    CELL_CASES,
    CELL_FORMS,
    ODD_ODD,
    TALLY_KEYS,
    ParityCase,
    bound_for_key,
    cell_weight_grids,
    classify,
    odd_odd_cell,
    simplified_lhs,
    tally_key,
    weight_vector,
)

INT64_HEADROOM = 2**62
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

    @property
    def is_square(self) -> bool:
        return self.x_min == self.y_min and self.x_max == self.y_max

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


@dataclass(frozen=True)
class Violation:
    """One failed comparison, with the exact offending value. Triple sweeps
    record the witness midpoint in z."""

    x: int
    y: int
    case: str
    quantity: str
    value: object
    z: Optional[int] = None

    def sort_key(self) -> tuple:
        return (self.x, self.y, self.quantity, self.z if self.z is not None else 0)


class _Findings:
    """Counts every violation a sweep finds and keeps the first `cap`."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.total = 0
        self.kept: list[Violation] = []

    def add(self, v: Violation) -> None:
        self.total += 1
        if len(self.kept) < self.cap:
            self.kept.append(v)

    def add_counted(self, count: int, first: Iterable[Violation]) -> None:
        """Count `count` violations, of which `first` yields the first ones."""
        self.total += count
        self.kept.extend(islice(first, max(0, self.cap - len(self.kept))))

    def add_mask(self, mask, make: Callable[[int, int], Violation]) -> None:
        """Count the entries a 2-d numpy mask flags and keep the first ones in
        row-major order, built by make(row, column)."""
        count, rows, cols = _first_flags(mask, self.cap - len(self.kept))
        self.add_counted(count, (make(i, j) for i, j in
                                 zip(rows.tolist(), cols.tolist())))

    def sorted(self) -> tuple:
        return tuple(sorted(self.kept, key=Violation.sort_key))


def _first_flags(mask: np.ndarray, limit: int) -> tuple:
    """How many entries a 2-d mask flags, and the row and column indices of
    the first `limit` of them in row-major order. Indices are built only for
    the rows that hold those, not for every flagged entry."""
    per_row = np.cumsum(np.count_nonzero(mask, axis=1))
    count = int(per_row[-1]) if len(per_row) else 0
    limit = min(limit, count)
    if limit <= 0:
        empty = np.zeros(0, dtype=np.intp)
        return count, empty, empty
    last = int(np.searchsorted(per_row, limit))
    rows, cols = np.nonzero(mask[:last + 1])
    return count, rows[:limit], cols[:limit]


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
    """Aggregated sweep outcome; merge() sums tallies and re-sorts violations."""

    op: str
    rng: RangeSpec
    pairs_checked: int
    per_case: dict
    violations: tuple
    violations_total: int
    elapsed_ms: int
    engine: str
    params: dict = field(default_factory=dict)
    max_violations: int = DEFAULT_MAX_VIOLATIONS

    @property
    def ok(self) -> bool:
        return self.violations_total == 0


def merge_reports(a: VerificationReport, b: VerificationReport) -> VerificationReport:
    """Combine reports over disjoint ranges of the same sweep."""
    if a.op != b.op:
        raise ValueError(f"cannot merge {a.op!r} with {b.op!r}")
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
    cap = max(a.max_violations, b.max_violations)
    violations = tuple(sorted(a.violations + b.violations,
                              key=Violation.sort_key))[:cap]
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
    bounded by the largest map image. Below 2^62 the grid engine evaluates
    the forms at the pairs on int64; a range at or beyond it is far, and
    runs on int64 in the base (_far_base) or on Python ints."""
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
    """Pure-Python exact sweep; the reference the vector engine must match."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    do_bounds = CHECK_BOUNDS in checks
    do_cross = CHECK_CROSS in checks
    do_m = CHECK_MBOUND in checks
    m_num, m_den = m_cap.numerator, m_cap.denominator

    per_case: dict[str, CaseTally] = {}
    pairs = 0
    done = 0

    def add_violation(x: int, y: int, key: str, check: str, value) -> None:
        found.add(Violation(x, y, key, QUANTITY_LABELS[check], value))

    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            done += 1
            if progress is not None and done % PROGRESS_STRIDE == 0:
                progress(done)
            pc = classify(x, y)
            if not rng.admits(pc.case):
                continue
            pairs += 1
            key = tally_key(x, y)
            tal = per_case.get(key)
            if tal is None:
                tal = per_case[key] = CaseTally(bound=bound_for_key(key))
            tal.pairs += 1

            direct = lhs(weight_vector, accel_T, x, y) if do_lhs else None
            simp = simplified_lhs(x, y) if do_simp else None
            value = direct if direct is not None else simp
            if value is not None:
                tal.absorb_value(value)

            if CHECK_LHS in checks and direct > 0:
                add_violation(x, y, key, CHECK_LHS, direct)
            if do_bounds and direct > tal.bound:
                add_violation(x, y, key, CHECK_BOUNDS, direct)
            if CHECK_SIMPLIFIED in checks and simp > 0:
                add_violation(x, y, key, CHECK_SIMPLIFIED, simp)
            if do_cross and direct != simp:
                add_violation(x, y, key, CHECK_CROSS, simp - direct)
            if do_m:
                worst = weight_vector(x, y).max_abs()
                if worst * m_den > m_num:
                    add_violation(x, y, key, CHECK_MBOUND, worst)

    return pairs, per_case


# --- vectorized pair sweep -------------------------------------------------

# A far range (_pair_bound at least 2^62) runs on int64 only below this
# coordinate, where the gates 11k - 10l + 1 that place odd-odd pairs in their
# cells still fit, and only when its base passes the guard of _far_base.
FAR_INT64_LIMIT = 2**58
FAR_GUARD = 1024


def _far_base(rng: RangeSpec, scale: int = 1) -> int:
    """The base K at which a far range runs on int64, or 0 where it cannot.

    Write every coordinate as v = 2(K + j) + r with K = min(x_min, y_min) // 2,
    r in {0, 1} and 0 <= j <= J, J the largest shifted reduced coordinate;
    let S = J + 1. With the weights fixed at each pair's true cell, T(v) is
    K + j or 3(K + j) + 2, so each of the six distances is p*K + q with
    |p| <= 2 and |q| <= 3J + 2 <= 3S, and twice the six-term form is
    2F = A*K^2 + B*K + C. With weights of magnitude at most 2*scale (scale is
    the blend lemma's largest lambda denominator, else 1), |B| <= 288*scale*S
    and |C| <= 216*scale*S^2. No coordinate of such a range is 1, and the
    closed forms of the other cells (the diagonal's k - l = j - i is at most
    1 in magnitude) give |B| <= 48S and |C| <= 48S^2.

    A quadratic A*K^2 + B*K + C' with integer coefficients has the sign of
    its first nonzero coefficient once K > |B| + |C'|. The widest such bound
    the sweeps need is for the difference of two six-term values (per-cell
    maxima, and the blend identity): 2*scale*(288S + 216S^2) <= 1008*scale*S^2.
    A bound check adds at most |2t| = 16, a cross check pairs one six-term
    and one closed form. So K > FAR_GUARD * scale * S^2 makes every
    comparison the lexicographic one of the coefficients. The forms are then
    evaluated with K replaced by 0, 1 and 2: coordinates stay below 2S + 4
    and T-images below 8S, so every value is below 768*scale*S^2 < K < 2^57.
    """
    top = max(rng.x_max, rng.y_max)
    base = min(rng.x_min, rng.y_min) // 2
    span = top // 2 - base + 1
    if top >= FAR_INT64_LIMIT or base <= FAR_GUARD * scale * span * span:
        return 0
    return base


def _axis_parts(lo: int, hi: int, dtype, classes=(0, 1, 2)) -> tuple:
    """Along one axis, the values v whose parity class (0 for 1, 1 for even,
    2 for odd >= 3, the order of CASE_ORDER) is in `classes`, their reduced
    coordinates v >> 1 (k for both v = 2k and v = 2k+1), T-images and class."""
    v = np.arange(lo, hi + 1, dtype=dtype)
    is1 = v == 1
    even = (v & 1) == 0
    t = np.where(is1, 1, np.where(even, v >> 1, (3 * v + 1) >> 1))
    parity = np.where(is1, 0, np.where(even, 1, 2)).astype(np.int8)
    keep = np.isin(parity, classes)
    return tuple(a[keep] for a in (v, v >> 1, t, parity))


def _shift_axis(parts: tuple, d: int) -> tuple:
    """Axis parts with every reduced coordinate k moved to k - d and the
    T-images given by the branch formula, k for even values and 3k + 2 for
    odd ones; no value of a far range is 1."""
    v, k, _, parity = parts
    k = k - d
    return v - 2 * d, k, np.where(parity == 2, 3 * k + 2, k), parity


@dataclass
class _Form:
    """Exact values of a form over a block of pairs.

    Without a base, `coefs` is one array: the values. With a base K (a far
    range on int64, see _far_base) it is (A, B, C), where the value at every
    pair is F = (A*K^2 + B*K + C) / 2; the guard on K makes every comparison
    the lexicographic one of the coefficients, and exact values are worked
    out in Python ints only for what a report records."""

    coefs: tuple
    base: int = 0

    @classmethod
    def at_points(cls, values: Sequence, base: int) -> "_Form":
        """The form taking `values` at a grid's evaluation points: its own
        pairs, or with base K, those pairs with K moved to 0, 1 and 2."""
        if len(values) == 1:
            return cls((values[0],), base)
        f0, f1, f2 = values
        return cls((f0 - 2 * f1 + f2, 4 * f1 - 3 * f0 - f2, 2 * f0), base)

    def _exact(self, coefs: Sequence) -> int:
        if len(coefs) == 1:
            return int(coefs[0])
        a, b, c = (int(v) for v in coefs)
        return ((a * self.base + b) * self.base + c) // 2

    def exceeds(self, t):
        """Mask of the pairs whose value is above t, a number or a grid."""
        if len(self.coefs) == 1:
            return self.coefs[0] > t
        a, b, c = self.coefs
        return (a > 0) | ((a == 0) & ((b > 0) | ((b == 0) & (c > 2 * t))))

    def nonzero(self):
        mask = self.coefs[0] != 0
        for g in self.coefs[1:]:
            mask |= g != 0
        return mask

    def __sub__(self, other: "_Form") -> "_Form":
        return _Form(tuple(p - q for p, q in zip(self.coefs, other.coefs)),
                     self.base)

    def __isub__(self, other: "_Form") -> "_Form":
        for p, q in zip(self.coefs, other.coefs):
            p -= q
        return self

    def put(self, mask, form: "_Form") -> None:
        """Write a form given on the pairs `mask` selects into this one."""
        for p, q in zip(self.coefs, form.coefs):
            p[mask] = q

    def max(self, mask=None) -> int:
        """The largest value over the pairs `mask` selects (all if None)."""
        rest = [g if mask is None else g[mask] for g in self.coefs]
        top = [np.max(rest[0])]
        while len(rest) > 1:
            keep = rest[0] == top[-1]
            rest = [g[keep] for g in rest[1:]]
            top.append(rest[0].max())
        return self._exact(top)

    def value(self, i, j) -> int:
        return self._exact([g[i, j] for g in self.coefs])

    def values(self, rows, cols) -> list:
        if len(self.coefs) == 1:
            return self.coefs[0][rows, cols].tolist()
        return [self._exact(c) for c in
                zip(*(g[rows, cols].tolist() for g in self.coefs))]


@dataclass
class _Grid:
    """A block of pairs with x down the rows and y across the columns: the
    coordinates as a column and a row vector, the report cell and six weights
    of every pair, and the points at which forms are evaluated, each one
    (x, T(x), k) as column and (y, T(y), l) as row vectors. Without a base
    the one point is the pairs themselves; with base K > 0 there are three,
    the pairs with K moved to 0, 1 and 2."""

    x: np.ndarray
    y: np.ndarray
    cell: np.ndarray
    weights: tuple
    points: tuple
    base: int = 0

    def form(self, weights: Sequence, checked: bool = False) -> _Form:
        """The six-term form at every pair, with the given weight grids;
        `checked` applies the width checks of the scalar lhs. The terms are
        built and summed in place, so at most two grids of the element type
        are alive at once per point."""
        values = []
        for x, tx, _, y, ty, _ in self.points:
            total = None
            for w, (a, b) in zip(weights, ((tx, ty), (x, ty), (tx, y),
                                           (x, y), (x, tx), (y, ty))):
                term = a - b
                term *= term
                if term.shape == self.cell.shape:
                    term *= w
                else:
                    term = term * w
                if checked:
                    check_width(int(np.abs(term).max(initial=0)),
                                "six-term product")
                if total is None:
                    total = term
                else:
                    total += term
                del term  # free this term before the next one is allocated
            if checked:
                check_width(int(np.abs(total).max(initial=0)), "six-term sum")
            values.append(total)
        return _Form.at_points(values, self.base)

    def closed_form(self, cell: int, mask) -> _Form:
        """CELL_FORMS[cell] on the pairs `mask` selects, as 1-d arrays (a
        number for the constant form of 1-1, which no far range reaches).
        Point s has k and l of point 0 plus s."""
        _, _, k, _, _, l = self.points[0]
        k = np.broadcast_to(k, self.cell.shape)[mask]
        l = np.broadcast_to(l, self.cell.shape)[mask]
        form = CELL_FORMS[cell]
        return _Form.at_points([form(k + s, l + s) if s else form(k, l)
                                for s in range(len(self.points))], self.base)

    def zeros(self) -> _Form:
        return _Form(tuple(np.zeros(self.cell.shape, dtype=self.x.dtype)
                           for _ in self.points), self.base)


def _grid(xs: tuple, ys: tuple, base: int = 0) -> _Grid:
    """The pairs of two axes (as _axis_parts gives them) as one _Grid, with
    cells and weights from the true coordinates and, for base > 0, the forms
    evaluated with the base moved to 0, 1 and 2. The odd-odd subcells are
    classified on the odd-odd rows and columns only."""
    x, k, _, px = (a[:, None] for a in xs)
    y, l, _, py = (a[None, :] for a in ys)
    cell = 3 * px + py
    rows = np.flatnonzero(xs[3] == ODD_ODD // 3)
    cols = np.flatnonzero(ys[3] == ODD_ODD % 3)
    if len(rows) and len(cols):
        cell[np.ix_(rows, cols)] = odd_odd_cell(xs[1][rows, None],
                                                ys[1][None, cols])
    at = [(xs, ys)] if not base else [
        (_shift_axis(xs, base - s), _shift_axis(ys, base - s))
        for s in range(3)]
    points = tuple((ax[0][:, None], ax[2][:, None], ax[1][:, None],
                    ay[0][None, :], ay[2][None, :], ay[1][None, :])
                   for ax, ay in at)
    return _Grid(x, y, cell, cell_weight_grids(cell, k, l), points, base)


# Pairs a sweep holds in flight: int64 blocks share PAIR_BLOCK among the
# threads that run them at once. Python-int blocks hold the interpreter lock,
# so they run one at a time on the calling thread.
PAIR_BLOCK = 1 << 21
OBJECT_BLOCK = 1 << 12


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _worker_count(jobs: int, blocks: int) -> int:
    """Threads that run a sweep's blocks: `jobs`, bounded by the CPUs this
    process may run on and by the number of blocks, and at least one."""
    return max(1, min(jobs, _usable_cpus(), blocks))


@dataclass
class _Block:
    """What one row block of a sweep found: its size, pairs and largest form
    value per cell, and the number of flags with the x, y, cell, check and
    value of the first ones in pair-major order."""

    size: int
    counts: np.ndarray
    maxima: list
    flagged: int
    first: tuple


def _sweep_block(g: _Grid, checks: Sequence[str], cells: Sequence[int],
                 masked: bool, m_floor: int, checked: bool,
                 cap: int) -> _Block:
    """Run the checks on one block. It writes nothing outside the block, so
    blocks can run on several threads at once."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    shape = g.cell.shape
    counts = np.bincount(g.cell.ravel(), minlength=len(CELL_CASES))
    direct = g.form(g.weights, checked) if do_lhs else None
    simp = g.zeros() if do_simp else None
    maxima: list = [None] * len(CELL_CASES)

    for c in cells:
        if counts[c] == 0:
            continue
        mask = g.cell == c
        if simp is not None:
            form = g.closed_form(c, mask)
            simp.put(mask, form)
        if direct is not None:
            maxima[c] = direct.max(mask)
        elif simp is not None:
            maxima[c] = form.max()

    sel = np.isin(g.cell, cells) if masked else None
    flagged = 0
    at, kinds, values = [], [], []

    def flag(mask, check: str, form: _Form) -> None:
        nonlocal flagged
        if sel is not None:
            mask &= sel
        count, rows, cols = _first_flags(mask, cap)
        flagged += count
        at.append(rows * shape[1] + cols)
        kinds.extend([check] * len(rows))
        values.extend(form.values(rows, cols))

    if CHECK_LHS in checks:
        flag(direct.exceeds(0), CHECK_LHS, direct)
    if CHECK_BOUNDS in checks:
        flag(direct.exceeds(np.array(CELL_BOUNDS, dtype=np.int8)[g.cell]),
             CHECK_BOUNDS, direct)
    if CHECK_SIMPLIFIED in checks:
        flag(simp.exceeds(0), CHECK_SIMPLIFIED, simp)
    if CHECK_CROSS in checks:
        simp -= direct  # in place: no later check reads simp
        flag(simp.nonzero(), CHECK_CROSS, simp)
    if CHECK_MBOUND in checks:
        worst = np.abs(g.weights[0])
        for w in g.weights[1:]:
            worst = np.maximum(worst, np.abs(w))
        flag(worst > m_floor, CHECK_MBOUND, _Form((worst,)))

    # pair-major, and at one pair in the order the checks ran, as the
    # scalar engine finds them
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")[:cap]
    rows, cols = np.divmod(at[order], shape[1])
    first = (g.x[rows, 0].tolist(), g.y[0, cols].tolist(),
             g.cell[rows, cols].tolist(), [kinds[i] for i in order],
             [values[i] for i in order])
    return _Block(g.cell.size, counts, maxima, flagged, first)


def _sweep_vector(rng: RangeSpec, checks: Sequence[str], m_cap: Fraction,
                  found: _Findings,
                  progress: Optional[Callable[[int], None]],
                  jobs: int = 1) -> tuple:
    """Sweep over row blocks of the axis values the case filter admits.

    Where _pair_bound allows it, blocks run on int64 at the pairs themselves,
    and with jobs > 1 on a thread pool (numpy releases the interpreter lock
    in its integer loops); the calling thread folds their results in block
    order, so the report does not depend on jobs. Far ranges run in small
    blocks on the calling thread: on int64 as quadratics in the base K where
    _far_base allows it, and on Python ints otherwise."""
    # an integer weight exceeds M exactly when it exceeds floor(M)
    m_floor = m_cap.numerator // m_cap.denominator
    cells = [c for c, case in enumerate(CELL_CASES) if rng.admits(case)]
    cases = [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]
    x_classes = sorted({c // 3 for c in cases})
    y_classes = sorted({c % 3 for c in cases})
    # a case set that is no product of axis classes needs a mask as well
    masked = len(x_classes) * len(y_classes) > len(cases)
    bound = _pair_bound(rng)
    near = bound < INT64_HEADROOM
    base = 0 if near else _far_base(rng)
    dtype = np.int64 if near or base else object

    xs = _axis_parts(rng.x_min, rng.x_max, dtype, x_classes)
    ys = _axis_parts(rng.y_min, rng.y_max, dtype, y_classes)
    nrows, ncols = len(xs[0]), len(ys[0])
    workers = _worker_count(jobs, nrows) if near else 1
    budget = PAIR_BLOCK // workers if near else OBJECT_BLOCK
    block = max(1, budget // max(1, ncols))
    starts = range(0, nrows, block)
    workers = min(workers, len(starts))

    def run(r0: int) -> _Block:
        g = _grid(tuple(a[r0:r0 + block] for a in xs), ys, base)
        return _sweep_block(g, checks, cells, masked, m_floor,
                            bound > WIDTH_LIMIT, found.cap)

    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    per_case: dict[str, CaseTally] = {}
    pairs = 0
    done = reported = 0
    try:
        # block results arrive in block order from either map
        for b in (pool.map if pool else map)(run, starts):
            for c in cells:
                count = int(b.counts[c])
                if count == 0:
                    continue
                key = TALLY_KEYS[c]
                tal = per_case.get(key)
                if tal is None:
                    tal = per_case[key] = CaseTally(bound=CELL_BOUNDS[c])
                tal.pairs += count
                pairs += count
                if b.maxima[c] is not None:
                    tal.absorb_value(b.maxima[c])
            found.add_counted(b.flagged, (
                Violation(x, y, TALLY_KEYS[cell], QUANTITY_LABELS[check], v)
                for x, y, cell, check, v in zip(*b.first)))
            done += b.size
            if progress is not None and done - reported >= PROGRESS_STRIDE:
                reported = done
                progress(done)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return pairs, per_case


ENGINES = ("auto", "vector", "scalar")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         + ", ".join(ENGINES))


def _run_pair_sweep(op: str, rng: RangeSpec, checks: Sequence[str],
                    m_cap: Fraction = Fraction(2), engine: str = "auto",
                    max_violations: int = DEFAULT_MAX_VIOLATIONS,
                    jobs: int = 1,
                    progress: Optional[Callable[[int], None]] = None
                    ) -> VerificationReport:
    """One pair sweep. `jobs` threads the grid engine's int64 blocks; the
    scalar engine, the per-pair reference, always runs serially."""
    _check_engine(engine)
    started = time.monotonic()
    found = _Findings(max_violations)
    if engine == "scalar":
        pairs, per_case = _sweep_scalar(rng, checks, m_cap, found, progress)
    else:
        pairs, per_case = _sweep_vector(rng, checks, m_cap, found, progress,
                                        jobs)
    return VerificationReport(
        op=op, rng=rng, pairs_checked=pairs, per_case=_sorted_cells(per_case),
        violations=found.sorted(), violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine="scalar" if engine == "scalar" else "vector",
        params={"checks": "+".join(checks), "M": format_rational(m_cap)},
        max_violations=max_violations)


def verify_pseudocontraction(rng: RangeSpec, *, bounds: bool = True,
                             engine: str = "auto",
                             max_violations: int = DEFAULT_MAX_VIOLATIONS,
                             jobs: int = 1,
                             progress: Optional[Callable[[int], None]] = None
                             ) -> VerificationReport:
    """Check the contraction inequality lhs <= 0 (and, by default, the
    sharpened per-case bounds) for every pair in range."""
    checks = (CHECK_LHS, CHECK_BOUNDS) if bounds else (CHECK_LHS,)
    return _run_pair_sweep("verify", rng, checks, engine=engine,
                           max_violations=max_violations, jobs=jobs,
                           progress=progress)


def verify_simplified(rng: RangeSpec, *, engine: str = "auto",
                      max_violations: int = DEFAULT_MAX_VIOLATIONS,
                      jobs: int = 1,
                      progress: Optional[Callable[[int], None]] = None
                      ) -> VerificationReport:
    """Check the per-case closed forms are <= 0 for every pair in range."""
    return _run_pair_sweep("verify-simplified", rng, (CHECK_SIMPLIFIED,),
                           engine=engine, max_violations=max_violations,
                           jobs=jobs, progress=progress)


def cross_check_simplified(rng: RangeSpec, *, engine: str = "auto",
                           max_violations: int = DEFAULT_MAX_VIOLATIONS,
                           jobs: int = 1,
                           progress: Optional[Callable[[int], None]] = None
                           ) -> VerificationReport:
    """Assert the closed forms equal the direct six-term evaluation on every
    pair (zero tolerance)."""
    return _run_pair_sweep("cross-check", rng, (CHECK_CROSS,), engine=engine,
                           max_violations=max_violations, jobs=jobs,
                           progress=progress)


def m_bound_sweep(rng: RangeSpec, m_cap: Fraction = Fraction(2), *,
                  engine: str = "auto",
                  max_violations: int = DEFAULT_MAX_VIOLATIONS,
                  jobs: int = 1,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> VerificationReport:
    """Check |w| <= M for all six raw weights over every pair in range."""
    return _run_pair_sweep("m-bound", rng, (CHECK_MBOUND,), m_cap=m_cap,
                           engine=engine, max_violations=max_violations,
                           jobs=jobs, progress=progress)


# --- lemma sweeps -----------------------------------------------------------

def _as_lambda_specs(lambdas: Iterable) -> list[LambdaSpec]:
    out = []
    for item in lambdas:
        if isinstance(item, LambdaSpec):
            out.append(item)
        else:
            out.append(LambdaSpec.const(item))
    return out


def verify_lemmas(rng: RangeSpec, thetas: Sequence, lambdas: Sequence, *,
                  engine: str = "auto",
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
    Unless engine is "scalar" the triangle-gap lemma runs vectorized, and so
    does the blend on squares of side <= 1500 with constant lambdas: on
    int64 where max_den * _pair_bound fits, and beyond that as quadratics in
    the base where _far_base, scaled by max_den, allows it. The report's
    engine names what ran: "vector", "scalar" or "mixed".
    """
    _check_engine(engine)
    started = time.monotonic()
    specs = _as_lambda_specs(lambdas)
    per_case: dict[str, CaseTally] = {}
    found = _Findings(max_violations)
    checks_done = 0
    engines_run = set()

    lo, hi = rng.x_min, rng.x_max
    n_axis = hi - lo + 1
    use_vector = engine != "scalar"

    def note(key: str, count: int) -> None:
        nonlocal checks_done
        tal = per_case.get(key)
        if tal is None:
            tal = per_case[key] = CaseTally()
        tal.pairs += count
        checks_done += count

    # Triangle-gap lemma over triples.
    triples = n_axis ** 3
    for theta in thetas:
        th = Fraction(theta)
        p = th.numerator
        key = f"lemma1:theta={format_rational(th)}"
        note(key, triples)
        if p >= 0:
            # gap = theta*d(x,y)^2 >= 0 holds identically; z plays no part.
            continue
        engines_run.add("vector" if use_vector else "scalar")
        if use_vector:
            # only differences enter, so offsets from lo stand in for x, y, z
            v = np.arange(n_axis, dtype=np.int64)
            d2 = (v[:, None] - v[None, :]) ** 2
            # gap/|theta| scaled: negative theta flips to d(x,y)^2 <= 2*(sum)
            for i in range(n_axis):
                lhs_row = d2[i][None, :]            # d(x,y)^2 over y
                s = d2[i][:, None] + d2             # d(x,z)^2 + d(z,y)^2, [z, y]
                found.add_mask(lhs_row > 2 * s, lambda zi, yi: Violation(
                    lo + i, lo + yi, key, "lemma1-gap<0",
                    Fraction(p * int(lhs_row[0, yi]) - 2 * p * int(s[zi, yi]),
                             th.denominator),
                    z=lo + zi))
        else:
            for x in range(lo, hi + 1):
                for y in range(lo, hi + 1):
                    dxy = (x - y) ** 2
                    for z in range(lo, hi + 1):
                        if dxy > 2 * ((x - z) ** 2 + (z - y) ** 2):
                            gap = Fraction(
                                p * dxy - 2 * p * ((x - z) ** 2 + (z - y) ** 2),
                                th.denominator)
                            found.add(Violation(x, y, key, "lemma1-gap<0",
                                                gap, z=z))
        if progress is not None:
            progress(checks_done)

    # Blend lemma over pairs.
    max_den = max((s.constant.denominator for s in specs
                   if s.constant is not None), default=1)
    vector_ok = (use_vector and rng.is_square
                 and all(s.constant is not None for s in specs)
                 and n_axis <= 1500)
    base = 0
    # blended weight numerators are bounded by 2*max_den
    if vector_ok and max_den * _pair_bound(rng) >= INT64_HEADROOM:
        base = _far_base(rng, max_den)
        vector_ok = base > 0
    if specs:
        engines_run.add("vector" if vector_ok else "scalar")
    if vector_ok and specs:
        axis = _axis_parts(lo, hi, np.int64)
        # one axis, so one base: the mirrors (.T) line up on far squares too
        g = _grid(axis, axis, base)
        # Blending scales the weights past int8.
        w = tuple(a.astype(np.int64) for a in g.weights)
        direct = g.form(w)
        al, be, ga, de, ep, ze = w
        mirrored = (al.T, ga.T, be.T, de.T, ze.T, ep.T)
        for spec in specs:
            lam = spec.constant
            p, q = lam.numerator, lam.denominator
            ikey = f"lemma2-identity:lambda={spec.label}"
            nkey = f"lemma2-nonpositive:lambda={spec.label}"
            note(ikey, n_axis * n_axis)
            note(nkey, n_axis * n_axis)
            # The identity scaled by q: blended weights (q-p)*w + p*mirror.
            co = q - p
            left = g.form([co * a + p * b for a, b in zip(w, mirrored)])
            right = _Form(tuple(co * d + p * d.T for d in direct.coefs), base)
            diff = left - right
            for mask, key, quantity, values in (
                    (diff.nonzero(), ikey, "lemma2-identity", diff),
                    (left.exceeds(0), nkey, "lemma2-positive", left)):
                found.add_mask(mask, lambda i, j: Violation(
                    lo + i, lo + j, key, quantity,
                    Fraction(values.value(i, j), q)))
            if progress is not None:
                progress(checks_done)
    else:
        for spec in specs:
            ikey = f"lemma2-identity:lambda={spec.label}"
            nkey = f"lemma2-nonpositive:lambda={spec.label}"
            note(ikey, rng.grid_count())
            note(nkey, rng.grid_count())
            for x in range(rng.x_min, rng.x_max + 1):
                for y in range(rng.y_min, rng.y_max + 1):
                    lam_v = spec(x, y)
                    blended = symmetrize(weight_vector, spec, x, y)
                    left = weighted_lhs(blended, accel_T, x, y)
                    right = ((1 - lam_v) * lhs(weight_vector, accel_T, x, y)
                             + lam_v * lhs(weight_vector, accel_T, y, x))
                    if left != right:
                        found.add(Violation(x, y, ikey, "lemma2-identity",
                                            left - right))
                    if left > 0:
                        found.add(Violation(x, y, nkey, "lemma2-positive",
                                            left))
            if progress is not None:
                progress(checks_done)

    if not engines_run:
        engines_run.add("vector" if use_vector else "scalar")
    return VerificationReport(
        op="lemmas", rng=rng, pairs_checked=checks_done,
        per_case=_sorted_cells(per_case), violations=found.sorted(),
        violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine=engines_run.pop() if len(engines_run) == 1 else "mixed",
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


def coverage_cell_key(x: int, y: int) -> str:
    pc = classify(x, y)
    if pc.case is ParityCase.ODD_ODD:
        return "odd-odd:x>=y" if x >= y else "odd-odd:x<y"
    return pc.case.label


def _pair_lambda(lam: LambdaSpec, x: int, y: int) -> tuple[Fraction, Fraction]:
    return lam(x, y), lam(y, x)


def condition_coverage(rng: RangeSpec, params: ConditionParams,
                       kind: ConditionId, *, corrected_c4: bool = False,
                       m_lambda: bool = False,
                       progress: Optional[Callable[[int], None]] = None
                       ) -> ConditionCoverageReport:
    """Evaluate one condition at every pair in range and tally per cell.

    The odd-odd case is split by x >= y versus x < y because the two sides
    behave differently under the explicit weight system. Outcomes are
    memoized on the exact quantities they depend on (the two raw weight
    tuples and the two lambda values), so repeated weight patterns cost one
    evaluation.
    """
    started = time.monotonic()
    cells = {key: CoverageCell() for key in COVERAGE_KEYS}
    memo: dict = {}
    pairs = 0
    holds_total = fails_total = 0
    m_viol = 0 if kind.theorem == 3 and kind.number == 5 else None
    ml_viol = 0 if m_lambda and kind.theorem == 3 and kind.number == 5 else None
    track_sets = kind.number == 5

    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            pc = classify(x, y)
            if not rng.admits(pc.case):
                continue
            pairs += 1
            if progress is not None and pairs % PROGRESS_STRIDE == 0:
                progress(pairs)
            wxy = weight_vector(x, y)
            wyx = weight_vector(y, x)
            lxy, lyx = _pair_lambda(params.lam, x, y)
            key = (wxy.as_tuple(), wyx.as_tuple(), lxy, lyx)
            summary = memo.get(key)
            if summary is None:
                outcome = check_condition(kind, weight_vector, params, x, y,
                                          corrected_c4=corrected_c4,
                                          m_lambda=m_lambda)
                wit = outcome.witnesses
                if kind.number == 5:
                    if outcome.branch == BRANCH_FIRST:
                        ratio = wit.get("first_ratio")
                        b_sum = wit.get("first_b_sum")
                    elif outcome.branch == BRANCH_MIRRORED:
                        ratio = wit.get("mirror_ratio")
                        b_sum = wit.get("mirror_b_sum")
                    else:
                        ratio = b_sum = None
                    summary = (outcome.holds, outcome.branch, ratio, b_sum,
                               wit.get("m_ok", True), wit.get("m_lambda_ok", True))
                else:
                    summary = (outcome.holds, outcome.branch, None, None,
                               True, True)
                memo[key] = summary
            holds, branch, ratio, b_sum, m_ok, ml_ok = summary

            cell = cells[coverage_cell_key(x, y)]
            cell.pairs += 1
            if holds:
                holds_total += 1
                if branch == BRANCH_MIRRORED:
                    cell.holds_mirrored += 1
                else:
                    cell.holds_first += 1
                if cell.example_hold is None:
                    cell.example_hold = (x, y)
                if track_sets:
                    cell._note_set(cell.weight_tuples, wxy.as_tuple())
                    cell._note_set(cell.ratios, ratio)
                    cell._note_set(cell.b_sums, b_sum)
            else:
                fails_total += 1
                cell.fails += 1
                if cell.example_fail is None:
                    cell.example_fail = (x, y)
            if m_viol is not None and not m_ok:
                m_viol += 1
            if ml_viol is not None and not ml_ok:
                ml_viol += 1

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
    triple; scoring an assignment is then nine table lookups. When the full
    product grid exceeds the budget, each coupled case group is pre-ranked
    independently and only the top combinations enter the product (the
    result is marked budget_exhausted). Ties break to the lexicographically
    smallest (lambda vector, A).
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
    # lambda values; total[case] = pairs of that case in range.
    sat: dict = {c: {} for c in CASE_ORDER}
    total: dict = {c: 0 for c in CASE_ORDER}
    memo: dict = {}
    pairs = 0
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            case = classify(x, y).case
            if not rng.admits(case):
                continue
            pairs += 1
            total[case] += 1
            wxy = weight_vector(x, y).as_tuple()
            wyx = weight_vector(y, x).as_tuple()
            for v1 in values:
                for v2 in values:
                    for a in a_values:
                        mkey = (wxy, wyx, v1, v2, a)
                        holds = memo.get(mkey)
                        if holds is None:
                            params = ConditionParams(
                                _pairwise_lambda_spec(x, y, v1, v2), a, B, M)
                            holds = check_condition(
                                kind, weight_vector, params, x, y,
                                corrected_c4=corrected_c4).holds
                            memo[mkey] = holds
                        if holds:
                            skey = (v1, v2, a)
                            sat[case][skey] = sat[case].get(skey, 0) + 1
            if progress is not None and pairs % PROGRESS_STRIDE == 0:
                progress(pairs)

    present = [c for c in CASE_ORDER if total[c] > 0]

    def assignment_score(assign: dict, a: Fraction) -> int:
        score = 0
        for c in present:
            score += sat[c].get((assign[c], assign[c.transpose], a), 0)
        return score

    # Candidate value combinations per coupled group.
    full_product = (len(values) ** 9) * len(a_values)
    budget_exhausted = full_product > budget
    group_candidates: dict = {}
    for a in a_values:
        per_group = []
        for group in _SEARCH_GROUPS:
            if len(group) == 1:
                c = group[0]
                combos = [((v,), sat[c].get((v, v, a), 0)) for v in values]
            else:
                c, tc = group
                combos = [((v1, v2),
                           sat[c].get((v1, v2, a), 0) + sat[tc].get((v2, v1, a), 0))
                          for v1 in values for v2 in values]
            if budget_exhausted:
                per_a_budget = max(1, budget // len(a_values))
                keep = max(1, int(per_a_budget ** (1.0 / len(_SEARCH_GROUPS))))
                combos.sort(key=lambda cv: (-cv[1], cv[0]))
                combos = combos[:keep]
                combos.sort(key=lambda cv: cv[0])
            per_group.append([vals for vals, _ in combos])
        group_candidates[a] = per_group

    import itertools

    best_key = None
    best_cov = -1
    best_assign = None
    best_a = None
    scored = 0
    for a in a_values:
        for pick in itertools.product(*group_candidates[a]):
            assign = {}
            for group, vals in zip(_SEARCH_GROUPS, pick):
                if len(group) == 1:
                    assign[group[0]] = vals[0]
                else:
                    assign[group[0]] = vals[0]
                    assign[group[1]] = vals[1]
            scored += 1
            cov = assignment_score(assign, a)
            lex = (tuple(assign[c] for c in CASE_ORDER), a)
            if cov > best_cov or (cov == best_cov and lex < best_key):
                best_cov = cov
                best_key = lex
                best_assign = assign
                best_a = a

    cell_coverage = {}
    for c in present:
        got = sat[c].get((best_assign[c], best_assign[c.transpose], best_a), 0)
        cell_coverage[c.label] = (got, total[c])
    irreducible = tuple(
        c.label for c in present
        if (max(sat[c].values(), default=0)) < total[c])

    return LambdaSearchResult(
        q=q, a_grid=tuple(a_values), kind=kind, rng=rng, budget=budget,
        assignments_scored=scored, budget_exhausted=budget_exhausted,
        best_lambda={c.label: best_assign[c] for c in CASE_ORDER},
        best_a=best_a, covered=best_cov, total=pairs,
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

    def premise(px: int, py: int) -> bool:
        wxy = W(px, py)
        wyx = W(py, px)
        lxy, lyx = _pair_lambda(params.lam, px, py)
        key = (wxy.as_tuple(), wyx.as_tuple(), lxy, lyx)
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
                    found.add(Violation(
                        prev, cur, tally_key(prev, cur), "decay",
                        Fraction(a_den * step_sq - a_num * prev_sq, a_den)))
                if telescoped and prefix_intact:
                    pw_num *= a_num
                    pw_den *= a_den
                    per_case["telescoped-steps"].pairs += 1
                    if pw_den * step_sq > pw_num * first_sq:
                        found.add(Violation(
                            prev, cur, tally_key(prev, cur), "telescoped",
                            Fraction(pw_den * step_sq - pw_num * first_sq,
                                     pw_den)))
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
        violations=found.sorted(), violations_total=found.total,
        elapsed_ms=int((time.monotonic() - started) * 1000),
        engine="dedup" if dedup else "full",
        params={"A": format_rational(params.A), "lambda": params.lam.label,
                "telescoped": str(telescoped)},
        max_violations=max_violations)
