"""Time units and exact-arithmetic helpers.

All times in this package are microseconds. Quantities that may fall off the
integer grid (transmission times, equal-split WCETs, schedule offsets) are
held as :class:`fractions.Fraction` so that verifiers can compare intervals
exactly; plain ints are accepted anywhere a Fraction is.

Schedule offsets and frame windows live on a 0.1 us grid (``GRID_US``).

Code that works on integers converts here, each solver and verifier from
its own input: :func:`time_base` is the lcm ``D`` of the denominators of
the times given, and :func:`to_ticks` turns a time into whole ticks of
``1/D`` us, raising where a base misses a denominator.
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


def time_base(*groups) -> int:
    """The lcm ``D`` of the denominators of every time in the iterables
    ``groups``: each is a whole number of ticks of ``1/D`` us."""
    return math.lcm(*{t.denominator for group in groups for t in group})


def to_ticks(t: Time, D: int) -> int:
    """The exact integer ``t * D``; ValueError when it is not whole."""
    n, d = t.numerator, t.denominator
    if D % d:
        raise ValueError(f"{t} us is not a whole number of 1/{D} us ticks")
    return n * (D // d)


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
    """Inverse of :func:`time_to_json`. JSON ``true`` and ``false`` are not
    times, although Python's ``bool`` is an ``int``."""
    if isinstance(value, bool):
        raise ValueError(f"a time must be a number, got {value!r}")
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
    n, d = f.numerator, f.denominator
    # d divides 10**k for k = d.bit_length() exactly when its only prime
    # factors are 2 and 5; then |n| / d is M / 10**k for a whole M
    k = d.bit_length()
    if pow(10, k, d):
        raise ValueError(f"{f} has no finite decimal form")
    if d == 1:
        return str(n)
    digits = str(abs(n) * 10**k // d).rjust(k + 1, "0")
    sign = "-" if n < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:].rstrip('0')}"
