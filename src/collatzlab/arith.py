"""Checked-width exact arithmetic helpers.

Python integers never wrap, so every computation in this package is exact.
The width limit below exists so that runaway quantities (a diverging orbit
or decay iterate, whose growth no range bounds in advance, and the per-pair
six-term form of framework.lhs) abort loudly instead of consuming unbounded
memory, and so callers can rely on a documented magnitude contract: at
least 127-bit signed magnitudes are always accepted. The region sweeps,
whose values are quadratics in the range's bounds, carry no check.
"""

from __future__ import annotations

from fractions import Fraction

# Signed magnitude bound: values v with |v| <= WIDTH_LIMIT are always in
# contract; anything larger raises OverflowLimitError at the checkpoints.
WIDTH_BITS = 127
WIDTH_LIMIT = 2**WIDTH_BITS


class OverflowLimitError(OverflowError):
    """A checked quantity exceeded the exact-width magnitude limit."""

    def __init__(self, what: str, value: int) -> None:
        super().__init__(f"{what} exceeds {WIDTH_BITS}-bit signed magnitude limit")
        self.what = what
        self.value = value


def check_width(value: int, what: str = "value") -> int:
    """Return `value` unchanged; OverflowLimitError if |value| > WIDTH_LIMIT."""
    if value > WIDTH_LIMIT or -value > WIDTH_LIMIT:
        raise OverflowLimitError(what, value)
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact Fraction.

    Decimal points and exponents are rejected: inputs must stay exact.
    """
    s = text.strip()
    if not s or "." in s or "e" in s or "E" in s:
        raise ValueError(f"not an exact rational: {text!r}")
    num, sep, den = s.partition("/")
    try:
        if sep:
            return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None
    except ValueError:
        raise ValueError(f"not an exact rational: {text!r}") from None
    try:
        return Fraction(int(num))
    except ValueError:
        raise ValueError(f"not an exact rational: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render an exact number as "p" or "p/q" in lowest terms."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
