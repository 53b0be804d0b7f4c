"""Reduced rationals and bounded enumeration of them.

Rationals are plain ``fractions.Fraction`` values: the stdlib type already
maintains the two invariants everything downstream relies on, namely
``gcd(|numerator|, denominator) == 1`` and a strictly positive denominator
after every construction.  The enumeration itself runs on integers: one
generator yields the run of reduced numerators at each denominator, which
``reduced_fractions_in`` flattens, the sweep takes as integer pairs and the
renderer draws whole.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

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
    runs = _reduced_runs(_as_fraction(lo), _as_fraction(hi), max_den, include_lo, include_hi)
    return (Fraction(a, b) for b, run in runs for a in run)


def _reduced_runs(lo: Fraction, hi: Fraction, max_den: int, include_lo: bool = True,
                  include_hi: bool = True) -> Iterator[tuple[int, list[int]]]:
    """reduced_fractions_in as runs (b, [a, ...]) in the same order, one per
    b with at least one a.  For lo = ln/ld, the least a at b is
    ceil(ln*b/ld) = -(-ln*b // ld), or floor(ln*b/ld) + 1 when lo is left
    out; the greatest at hi likewise, so no bound is tested for equality.
    An even b has no even numerator coprime to it, so at even b the run
    steps over the odd integers only, from a_min | 1, the least odd integer
    >= a_min (negatives included); gcd decides the rest."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for b in range(1, max_den + 1):
        a_min = -(-ln * b // ld) if include_lo else ln * b // ld + 1
        a_max = hn * b // hd if include_hi else -(-hn * b // hd) - 1
        even = ~b & 1
        run = [a for a in range(a_min | even, a_max + 1, 1 + even) if gcd(a, b) == 1]
        if run:
            yield b, run
