"""The explicit six-weight system for the accelerated Collatz map T.

Pairs (x, y) of positive integers split into nine parity cases (x and y each
being 1, even, or odd >= 3); the odd-odd case splits further into five
subcases by the offset k - l of the reduced coordinates (x = 2k+1,
y = 2l+1) and two linear gates. That gives the thirteen report cells. This
module owns the cell decision and three per-cell tables: the weight row
(constant except on the diagonal), the sharpened upper bound of the
six-term quadratic form, and its closed-form polynomial in k and l. The
pair sweeps read them; the scalar helpers here are lookups into them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .arith import format_rational
from .framework import Exact, LambdaSpec, WeightVector


class ParityCase(enum.Enum):
    """Nine-way classification of a pair by (1 | even | odd>=3) coordinates."""

    ONE_ONE = "1-1"
    ONE_EVEN = "1-even"
    ONE_ODD = "1-odd"
    EVEN_ONE = "even-1"
    EVEN_EVEN = "even-even"
    EVEN_ODD = "even-odd"
    ODD_ONE = "odd-1"
    ODD_EVEN = "odd-even"
    ODD_ODD = "odd-odd"

    @property
    def label(self) -> str:
        return self.value

    @property
    def transpose(self) -> "ParityCase":
        """The case of the swapped pair (y, x)."""
        return _TRANSPOSE[self]


_TRANSPOSE = {
    ParityCase.ONE_ONE: ParityCase.ONE_ONE,
    ParityCase.ONE_EVEN: ParityCase.EVEN_ONE,
    ParityCase.ONE_ODD: ParityCase.ODD_ONE,
    ParityCase.EVEN_ONE: ParityCase.ONE_EVEN,
    ParityCase.EVEN_EVEN: ParityCase.EVEN_EVEN,
    ParityCase.EVEN_ODD: ParityCase.ODD_EVEN,
    ParityCase.ODD_ONE: ParityCase.ONE_ODD,
    ParityCase.ODD_EVEN: ParityCase.EVEN_ODD,
    ParityCase.ODD_ODD: ParityCase.ODD_ODD,
}

CASE_ORDER = (
    ParityCase.ONE_ONE, ParityCase.ONE_EVEN, ParityCase.ONE_ODD,
    ParityCase.EVEN_ONE, ParityCase.EVEN_EVEN, ParityCase.EVEN_ODD,
    ParityCase.ODD_ONE, ParityCase.ODD_EVEN, ParityCase.ODD_ODD,
)

CASE_BY_LABEL = {c.value: c for c in ParityCase}


class OddOddSubcase(enum.Enum):
    """Five-way split of the odd-odd case by the offset k - l and the signs
    of the two linear gates (low_gate, high_gate).

    "low" means k - l <= -2, "high" means k - l >= 2; "deep" marks the gated
    region far from the diagonal where an extra square term activates.
    """

    LOW_DEEP = "low-deep"
    LOW_BAND = "low-band"
    DIAGONAL = "diagonal"
    HIGH_BAND = "high-band"
    HIGH_DEEP = "high-deep"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class PairClass:
    """A parity case plus the reduced coordinates that recover the pair:
    x = 2k (even) or 2k+1 (odd >= 3), k absent when x = 1; same for (y, l)."""

    case: ParityCase
    k: Optional[int] = None
    l: Optional[int] = None

    def pair(self) -> tuple[int, int]:
        cx, cy = self.case.value.split("-")
        x = 1 if cx == "1" else (2 * self.k if cx == "even" else 2 * self.k + 1)
        y = 1 if cy == "1" else (2 * self.l if cy == "even" else 2 * self.l + 1)
        return x, y


def _case_index(x: int, y: int) -> tuple:
    """(index into CASE_ORDER, k, l) of a pair; k or l is None where the
    coordinate is 1, and v >> 1 otherwise (v = 2k or 2k+1)."""
    if x < 1 or y < 1:
        raise ValueError(f"pair must be positive integers, got ({x}, {y})")
    k = l = None
    cx = cy = 0
    if x != 1:
        k = x >> 1
        cx = 2 if x & 1 else 1
    if y != 1:
        l = y >> 1
        cy = 2 if y & 1 else 1
    return 3 * cx + cy, k, l


def classify(x: int, y: int) -> PairClass:
    """Total, unambiguous classification of any pair of positive integers."""
    case, k, l = _case_index(x, y)
    return PairClass(CASE_ORDER[case], k, l)


# --- report cells -------------------------------------------------------------
#
# Thirteen cells: the eight cases other than odd-odd, then the five odd-odd
# subcases. A cell index addresses TALLY_KEYS and the CELL_* tables below.

ODD_ODD = CASE_ORDER.index(ParityCase.ODD_ODD)
_SUBCASES = tuple(OddOddSubcase)
TALLY_KEYS = tuple([c.label for c in CASE_ORDER[:ODD_ODD]]
                   + [f"odd-odd:{s.label}" for s in _SUBCASES])
CELL_CASES = CASE_ORDER[:ODD_ODD] + (ParityCase.ODD_ODD,) * len(_SUBCASES)
DIAGONAL = TALLY_KEYS.index("odd-odd:diagonal")
_CELL_BY_KEY = {key: cell for cell, key in enumerate(TALLY_KEYS)}
# the cell of the swapped pair (y, x): the transposed case, and off the
# diagonal the odd-odd subcase across it (low and high swap)
CELL_TRANSPOSE = tuple(
    [CASE_ORDER.index(c.transpose) for c in CASE_ORDER[:ODD_ODD]]
    + [2 * DIAGONAL - cell for cell in range(ODD_ODD, len(TALLY_KEYS))])


def low_gate(k, l):
    """Linear form whose sign (<= 0) gates the low deep region."""
    return 11 * k - 10 * l + 1


def high_gate(k, l):
    """Linear form whose sign (<= 0) gates the high deep region."""
    return -10 * k + 11 * l + 1


def odd_odd_cell(k, l):
    """Cell of the odd-odd pair (2k+1, 2l+1).

    The five subcells lie at DIAGONAL - 2 .. DIAGONAL + 2 (low-deep,
    low-band, diagonal, high-band, high-deep); they partition all k, l >= 1
    because an integer is <= 0 exactly when it is not >= 1.
    """
    d = k - l
    low = d <= -2
    high = d >= 2
    return (DIAGONAL - low - (low & (low_gate(k, l) <= 0))
            + high + (high & (high_gate(k, l) <= 0)))


def locate(x: int, y: int) -> tuple:
    """(cell, k, l) of a pair: its report cell and reduced coordinates."""
    case, k, l = _case_index(x, y)
    return (odd_odd_cell(k, l) if case == ODD_ODD else case), k, l


# Weight rows (alpha, beta, gamma, delta, epsilon, zeta) per cell. Each is
# constant except the diagonal's, where beta = -gamma = k - l: cell_weights
# adds that offset to the 0s of its row.
CELL_WEIGHTS = (
    (1, 0, 0, 0, -1, 1),     # 1-1
    (1, 0, 0, -1, 0, 1),     # 1-even
    (0, 0, 0, -2, 1, 2),     # 1-odd
    (1, 0, 1, -1, 0, 1),     # even-1
    (1, 0, -1, 0, -1, 1),    # even-even
    (0, 0, -2, 1, -2, 2),    # even-odd
    (1, 0, -1, -1, 0, 1),    # odd-1
    (0, -2, 0, 1, 2, -2),    # odd-even
    (2, -2, 2, -2, 2, 0),    # odd-odd:low-deep
    (2, -2, 2, -1, 0, 0),    # odd-odd:low-band
    (2, 0, 0, -1, 0, 0),     # odd-odd:diagonal
    (2, 2, -2, -1, 0, 0),    # odd-odd:high-band
    (2, 2, -2, -2, 0, 2),    # odd-odd:high-deep
)

# Sharpened upper bound of the six-term form per cell.
CELL_BOUNDS = (0, 0, 0, -1, -1, -1, -4, -1, 0, -8, 0, -8, 0)

# Closed form of the six-term form per cell, in the reduced coordinates. The
# interval engine fits each once, in (k, l), and the diagonal's along k - l.
CELL_FORMS = (
    lambda k, l: 0,                                 # 1-1
    lambda k, l: -2 * l * l + 2 * l,                # 1-even
    lambda k, l: -6 * l * l + 4 * l + 2,            # 1-odd
    lambda k, l: -2 * k * k + 1,                    # even-1
    lambda k, l: -k * k + 2 * k * l - 2 * l * l,    # even-even
    lambda k, l: -2 * l * l + 1,                    # even-odd
    lambda k, l: -4 * k * k,                        # odd-1
    lambda k, l: -2 * k * k + 1,                    # odd-even
    lambda k, l: 2 * (k + 1) * low_gate(k, l),      # odd-odd:low-deep
    lambda k, l: 4 * (k - l) * (6 * k - l + 5),     # odd-odd:low-band
    lambda k, l: (k - l) ** 2 * (4 - 5 * (k + l)),  # odd-odd:diagonal
    lambda k, l: 4 * (k - l) * (k - 6 * l - 5),     # odd-odd:high-band
    lambda k, l: 2 * (l + 1) * high_gate(k, l),     # odd-odd:high-deep
)

def cell_weights(cell: int, k, l) -> tuple:
    """The six weights of a cell at reduced coordinates (k, l)."""
    row = CELL_WEIGHTS[cell]
    if cell != DIAGONAL:
        return row
    d = k - l
    return (row[0], row[1] + d, row[2] - d) + row[3:]


def _odd_odd_weights(k: int, l: int) -> tuple:
    return cell_weights(odd_odd_cell(k, l), k, l)


def beta0(k: int, l: int) -> int:
    """Offset k - l clamped to [-2, 2]."""
    return _odd_odd_weights(k, l)[1]


def delta0(k: int, l: int) -> int:
    """-2 in either deep gated region, -1 otherwise."""
    return _odd_odd_weights(k, l)[3]


def eps0(k: int, l: int) -> int:
    """2 in the low deep region, else 0."""
    return _odd_odd_weights(k, l)[4]


def zeta0(k: int, l: int) -> int:
    """2 in the high deep region, else 0."""
    return _odd_odd_weights(k, l)[5]


def odd_odd_subcase(k: int, l: int) -> OddOddSubcase:
    """The unique subcase containing (k, l)."""
    return _SUBCASES[odd_odd_cell(k, l) - ODD_ODD]


def weight_vector(x: int, y: int) -> WeightVector:
    """The tabulated six weights at (x, y); every component lies in [-2, 2]."""
    return WeightVector(*cell_weights(*locate(x, y)))


def odd_odd_master(k: int, l: int) -> int:
    """Odd-odd quadratic form grouped in the reduced coordinates, before the
    per-subcase factorization:

        (18 + 4*delta0)(k-l)^2 - 5*beta0*(k-l)(k+l+2)
            + eps0*(k+1)^2 + zeta0*(l+1)^2
    """
    d = k - l
    return ((18 + 4 * delta0(k, l)) * d * d
            - 5 * beta0(k, l) * d * (k + l + 2)
            + eps0(k, l) * (k + 1) ** 2
            + zeta0(k, l) * (l + 1) ** 2)


def simplified_lhs(x: int, y: int) -> int:
    """Per-cell closed form of the six-term quadratic form at (x, y).

    Must agree with the direct six-term evaluation identically; the odd-odd
    case uses the factorized form of its subcase.
    """
    cell, k, l = locate(x, y)
    return CELL_FORMS[cell](k, l)


def case_bound(pc: PairClass) -> int:
    """The sharpened upper bound asserted for the pair's case (odd-odd pairs
    get their subcase bound)."""
    if pc.case is ParityCase.ODD_ODD:
        return CELL_BOUNDS[odd_odd_cell(pc.k, pc.l)]
    return CELL_BOUNDS[CASE_ORDER.index(pc.case)]


def tally_key(x: int, y: int) -> str:
    """Report cell for a pair: the case label, refined by subcase for
    odd-odd pairs (e.g. "odd-odd:diagonal")."""
    return TALLY_KEYS[locate(x, y)[0]]


def bound_for_key(key: str) -> int:
    """case_bound keyed by tally label."""
    return CELL_BOUNDS[_CELL_BY_KEY[key]]


def case_lambda(table: Mapping[ParityCase, Exact]) -> LambdaSpec:
    """LambdaSpec reading one rational per parity case; all nine cases must
    be given explicitly."""
    missing = [c.label for c in CASE_ORDER if c not in table]
    if missing:
        raise ValueError(f"lambda table missing cases: {', '.join(missing)}")
    values = {c: Fraction(table[c]) for c in CASE_ORDER}
    for c, v in values.items():
        if not 0 <= v <= 1:
            raise ValueError(
                f"lambda[{c.label}] = {format_rational(v)} is outside [0, 1]")
    label = ",".join(f"{c.label}:{format_rational(values[c])}" for c in CASE_ORDER)
    distinct = set(values.values())
    constant = distinct.pop() if len(distinct) == 1 else None
    by_index = tuple(values[c] for c in CASE_ORDER)

    def fn(x: int, y: int) -> Fraction:
        return by_index[_case_index(x, y)[0]]

    return LambdaSpec(fn, label, constant=constant)
