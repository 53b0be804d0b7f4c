"""Reduced rationals and bounded enumeration of them.

Rationals are plain ``fractions.Fraction`` values: the stdlib type already
maintains the two invariants everything downstream relies on, namely
``gcd(|numerator|, denominator) == 1`` and a strictly positive denominator
after every construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterator

from .real import _as_fraction, _as_int


def reduced_fractions_in(
    lo: Fraction,
    hi: Fraction,
    max_den: int,
    *,
    include_lo: bool = True,
    include_hi: bool = True,
) -> Iterator[Fraction]:
    """Every reduced fraction with denominator <= max_den inside the interval.

    Yields in (denominator, numerator) order, so each rational appears exactly
    once, at its own (reduced) denominator.  Arguments are checked at the call.
    """
    max_den = _as_int(max_den)
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    return _reduced_fractions(_as_fraction(lo), _as_fraction(hi), max_den, include_lo, include_hi)


def _reduced_fractions(lo: Fraction, hi: Fraction, max_den: int,
                       include_lo: bool, include_hi: bool) -> Iterator[Fraction]:
    for b in range(1, max_den + 1):
        a_min = ceil(lo * b)
        a_max = floor(hi * b)
        if not include_lo and Fraction(a_min, b) == lo:
            a_min += 1
        if not include_hi and a_max >= a_min and Fraction(a_max, b) == hi:
            a_max -= 1
        for a in range(a_min, a_max + 1):
            if gcd(abs(a), b) == 1:
                yield Fraction(a, b)
