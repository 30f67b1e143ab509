"""The exact-arithmetic helpers in ``fogweaver.units``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogweaver.units import (
    fraction_to_decimal,
    time_base,
    to_ticks,
)


def test_time_base_is_the_lcm_of_every_denominator():
    assert time_base() == 1
    assert time_base([3, 5]) == 1
    assert time_base([Fraction(1, 4)], (Fraction(5, 6), 2)) == 12
    assert time_base(iter([Fraction(1, 10)]), [Fraction(7, 3)]) == 30


@pytest.mark.parametrize("t, D, expected", [
    (0, 1, 0),
    (7, 1, 7),
    (7, 30, 210),
    (-7, 30, -210),
    (Fraction(1, 10), 10, 1),
    (Fraction(1, 3), 30, 10),
    (Fraction(-2, 3), 30, -20),
    (Fraction(3500, 3), 3, 3500),
    (Fraction(10**20 + 1, 10), 10, 10**20 + 1),
])
def test_to_ticks_is_exact(t, D, expected):
    assert to_ticks(t, D) == expected
    assert type(to_ticks(t, D)) is int


@pytest.mark.parametrize("t, D", [
    (Fraction(1, 3), 10),
    (Fraction(1, 10), 5),
    (Fraction(1, 10), 1),
    (Fraction(-7, 30), 10),
])
def test_to_ticks_raises_when_the_base_misses_a_denominator(t, D):
    with pytest.raises(ValueError, match=f"not a whole number of 1/{D} us"):
        to_ticks(t, D)


def _long_division_decimal(f: Fraction) -> str:
    """The digit-by-digit rendering the integer-scale one replaced."""
    f = Fraction(f)
    rest = f.denominator
    for p in (2, 5):
        while rest % p == 0:
            rest //= p
    if rest != 1:
        raise ValueError(f"{f} has no finite decimal form")
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    f = abs(f)
    whole, rem = divmod(f.numerator, f.denominator)
    digits = []
    while rem:
        rem *= 10
        d, rem = divmod(rem, f.denominator)
        digits.append(str(d))
    return f"{sign}{whole}." + "".join(digits)


def _outcome(render, f):
    try:
        return render(f)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(derandomize=True, max_examples=1000)
@given(st.integers(-10**12, 10**12), st.integers(0, 40), st.integers(0, 20),
       st.sampled_from((1, 1, 1, 3, 7, 21)))
@example(0, 0, 0, 1)
@example(-1, 40, 0, 1)
@example(7, 0, 0, 3)
def test_fraction_to_decimal_matches_long_division(n, twos, fives, other):
    f = Fraction(n, 2**twos * 5**fives * other)
    assert _outcome(fraction_to_decimal, f) == _outcome(_long_division_decimal, f)
