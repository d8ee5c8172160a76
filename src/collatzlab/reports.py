"""Sweep reports over pair ranges: the range, the violation rows a report
keeps (as runs of y, read as a tuple of Violation rows), the per-cell
tallies, and merge_reports, which joins reports over disjoint ranges of one
sweep so that partitioned runs reproduce the single-run report. A row x of
several runs is put in y order by laying its pieces out in one slot per y
where no two runs share a y, and by a stable index sort otherwise (_layout,
_merge), which the row writer (render._rows) and the first read of the rows
share."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, islice, repeat
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .weights import CELL_BOUNDS, TALLY_KEYS, ParityCase

DEFAULT_MAX_VIOLATIONS = 10_000
PROGRESS_STRIDE = 10**6
# a row of several runs is laid out in y slots while its y span is at most
# this many times its rows (_layout)
SPARSE_SPAN = 4

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
    """One failed comparison, with the exact offending value. A plain
    immutable tuple of its fields, so that a report builds its rows in bulk
    when they are read (ViolationRows), and lists them in sort_key order.
    The writers' z column is a constant (render), not a field."""

    x: int
    y: int
    case: str
    quantity: str
    value: object

    def sort_key(self) -> tuple:
        return (self.x, self.y, self.quantity)


class ViolationRows:
    """A report's kept rows, read as a tuple of Violation rows that is built
    on the first read. They are held per row x as (x, n, runs), each run
    (ys, case, quantity, value) the rows at the y of a nonempty ascending
    range ys: x's rows are the runs' points by y, ties in run order, and the
    first n of them. Writers format the runs without building rows."""

    def __init__(self, groups: Optional[list] = None, count: int = 0) -> None:
        self.groups = [] if groups is None else groups
        self.count = count
        self._rows: Optional[tuple] = None

    def add(self, x: int, n: int, runs: list) -> None:
        self.groups.append((x, n, runs))
        self.count += n
        self._rows = None

    def _read(self) -> tuple:
        if self._rows is None:
            row = partial(tuple.__new__, Violation)

            def rows(x, ys, *head):
                return map(row, zip(repeat(x), ys, *map(repeat, head)))

            def read(x, n, runs):
                if len(runs) == 1:
                    ys, *head = runs[0]
                    return rows(x, ys[:n], *head)
                return _merge(n, runs, [(rows(x, *run),) for run in runs], 1,
                              _layout(runs))
            self._rows = tuple(chain.from_iterable(
                read(*group) for group in self.groups))
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


def _layout(runs: list) -> tuple:
    """(lo, span, total, slots) of a row of several runs (ys, ...): its
    least y, the span of its ys, its rows, and whether it takes one slot
    per y: not where two runs share a y, nor where the slots would
    outnumber the rows SPARSE_SPAN times over."""
    columns = [run[0] for run in runs]
    ends = [(ys.start, ys[-1], ys.step) for ys in columns]
    total = sum(map(len, columns))
    lo = min([start for start, _, _ in ends])
    span = max([last for _, last, _ in ends]) - lo + 1
    if span > SPARSE_SPAN * total:
        return lo, span, total, False
    # two runs share no y where their spans do not overlap or their starts
    # differ modulo the gcd of their steps; past a pair that passes neither
    # test, the ys the runs cover are counted, fewer than their rows where
    # two share a y
    for (a, a_last, a_step), (b, b_last, b_step) in combinations(ends, 2):
        if a <= b_last and b <= a_last and not (a - b) % gcd(a_step, b_step):
            marks = bytearray(span)
            for ys in columns:
                marks[ys.start - lo:ys.stop - lo:ys.step] = b"\1" * len(ys)
            return lo, span, total, span - marks.count(0) == total
    return lo, span, total, True


def _merge(n: int, runs: list, pieces: list, width: int,
           layout: tuple) -> Iterable:
    """The pieces of a row's first n rows, by y with ties in run order:
    pieces holds per run `width` sequences over its ys, a row's pieces
    being one from each, none of them empty or None. A row that takes slots
    (_layout) gives each y `width` of them, and a run fills its slots by
    extended-slice assignment on its range; the row is read past the empty
    slots and cut at n. Any other row is put in order by a stable index
    sort on y."""
    lo, span, total, slotted = layout
    if not slotted:
        ys = list(chain.from_iterable(run[0] for run in runs))
        rows = list(chain.from_iterable(zip(*seqs) for seqs in pieces))
        return chain.from_iterable(map(rows.__getitem__, islice(
            sorted(range(len(ys)), key=ys.__getitem__), n)))
    slots = [None] * (span * width)
    for run, seqs in zip(runs, pieces):
        ys = run[0]
        step = ys.step * width
        end = len(ys) * step
        for k, seq in enumerate(seqs, (ys.start - lo) * width):
            slots[k:k + end:step] = seq
    if span > total:
        slots = [*filter(None, slots)]
    del slots[n * width:]
    return slots


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

    def add(self, x: int, y: int, case: str, quantity: str, value) -> None:
        self.add_runs(x, 1, [(range(y, y + 1), case, quantity, value)])


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
    params and case filter, and ranges whose union is a rectangle, the
    merged report's range. The merged report keeps the smaller violation
    cap, the one at which both heads are known."""
    if a.op != b.op:
        raise ValueError(f"cannot merge {a.op!r} with {b.op!r}")
    if a.params != b.params:
        raise ValueError(f"cannot merge params {a.params} with {b.params}")
    if a.rng.cases != b.rng.cases:
        raise ValueError("cannot merge reports with different case filters")
    rng = RangeSpec(min(a.rng.x_min, b.rng.x_min), max(a.rng.x_max, b.rng.x_max),
                    min(a.rng.y_min, b.rng.y_min), max(a.rng.y_max, b.rng.y_max),
                    a.rng.cases)
    if (a.rng.x_min <= b.rng.x_max and b.rng.x_min <= a.rng.x_max
            and a.rng.y_min <= b.rng.y_max and b.rng.y_min <= a.rng.y_max):
        raise ValueError(f"cannot merge overlapping ranges {a.rng.label()} "
                         f"and {b.rng.label()}")
    # disjoint, so they cover their bounding box only where they fill it
    if a.rng.grid_count() + b.rng.grid_count() != rng.grid_count():
        raise ValueError(f"ranges {a.rng.label()} and {b.rng.label()} do not "
                         f"make up the rectangle {rng.label()}")
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



def _tally(per_case: dict, cell: int) -> CaseTally:
    """The tally of a cell's report key, made on its first pair."""
    key = TALLY_KEYS[cell]
    tal = per_case.get(key)
    if tal is None:
        tal = per_case[key] = CaseTally(bound=CELL_BOUNDS[cell])
    return tal
