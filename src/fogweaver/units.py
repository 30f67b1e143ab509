"""Time units and exact-arithmetic helpers.

All times in this package are microseconds. Quantities that may fall off the
integer grid (transmission times, equal-split WCETs, schedule offsets) are
held as :class:`fractions.Fraction` so that verifiers can compare intervals
exactly; plain ints are accepted anywhere a Fraction is.

Schedule offsets and frame windows live on a 0.1 us grid (``GRID_US``).
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Finest time resolution used by the schedule synthesizers.
GRID_US = Fraction(1, 10)

Time = Fraction | int


def lcm_all(values) -> int:
    """Least common multiple of positive integers."""
    return math.lcm(*values)


def time_to_json(t: Time):
    """JSON value that survives a round-trip without losing exactness.

    Integral values become ints. Values with a finite decimal expansion
    become floats (their ``repr`` is the exact decimal, so parsing the
    string form recovers the value). Anything else - e.g. a third of a
    millisecond - is emitted as an ``"a/b"`` string.
    """
    f = t if type(t) is Fraction else Fraction(t)
    n, d = f.numerator, f.denominator
    if d == 1:
        return n
    # a multiple of 0.1 below 1e14 has at most 15 significant digits, so
    # its float survives the trip through a string (DBL_DIG) unchecked
    if 10 % d == 0 and abs(n) < 10**14 * d:
        return n / d
    # n / d has a finite decimal form exactly when d divides 10**k; a value
    # without one never equals the decimal a string holds
    k = d.bit_length()
    if pow(10, k, d):
        return f"{n}/{d}"
    # n / d is M / 10**k for a whole M, and |M| < 10**15 has at most 15
    # significant digits, as above
    if abs(n) * 10**k < 10**15 * d or Fraction(str(n / d)) == f:
        return n / d
    return f"{n}/{d}"


def time_from_json(value) -> Fraction:
    """Inverse of :func:`time_to_json`."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def fraction_to_decimal(f: Fraction) -> str:
    """Render a Fraction as an exact decimal string.

    Used by the scenario printer: parsed documents only ever contain
    fractions with power-of-ten denominators, which render exactly. A value
    with no finite decimal form, such as 1/3, raises ValueError, because
    the scenario language cannot write it.
    """
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
