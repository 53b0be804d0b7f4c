"""Continued fractions: the finite expansion of a rational, its normalization
and exact value, and the convergents of any finite expansion or real."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .real import (
    EQ,
    GT,
    LT,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_int,
    as_real,
    compare_real,
    convergent_pairs,
)


@dataclass(frozen=True)
class Convergent:
    """One convergent A_n/B_n of an expansion; num and den are coprime."""

    index: int
    num: int
    den: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


class ContinuedFraction:
    """The finite coefficient sequence [b0; b1, ..., bn] of a rational.

    Coefficients after the first must be >= 1.  Sequences of length two or
    more are normalized so the final coefficient is >= 2 (a trailing 1 is
    merged into its predecessor), which makes the expansion of every rational
    unique.  An irrational is a ``RealNumber`` and walks its own coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self._coeffs = coeffs

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[int]) -> "ContinuedFraction":
        terms = [_as_int(b) for b in coeffs]
        if not terms:
            raise ValueError("a finite expansion needs at least one coefficient")
        for b in terms[1:]:
            if b < 1:
                raise ValueError("continued fraction coefficients after the first must be >= 1")
        if len(terms) >= 2 and terms[-1] == 1:
            terms.pop()
            terms[-1] += 1
        return cls(tuple(terms))

    @property
    def length(self) -> int:
        return len(self._coeffs)

    def coefficients(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __str__(self) -> str:
        head, *tail = self._coeffs
        return f"[{head};{','.join(map(str, tail))}]" if tail else f"[{head}]"

    def __repr__(self) -> str:
        return f"ContinuedFraction({str(self)})"


def cf_of_rational(x: RationalLike) -> ContinuedFraction:
    """The Euclidean expansion of a rational (``ExactReal.coefficients``),
    which never ends in 1."""
    return ContinuedFraction(tuple(ExactReal(x).coefficients()))


def convergents(expansion: ContinuedFraction | RealNumber, count: int) -> list[Convergent]:
    """The first `count` convergents A_n/B_n of a finite expansion or of a
    real, each reduced (the recurrence and its determinant identity are in
    real.convergent_pairs).
    """
    count = _as_int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    pairs = islice(convergent_pairs(expansion.coefficients()), count)
    convs = [Convergent(n, num, den) for n, (num, den) in enumerate(pairs)]
    if len(convs) < count:
        raise ValueError("expansion exhausted")
    return convs


def value(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite expansion."""
    return convergents(cf, cf.length)[-1].value


def convergent_ordering_check(convs: Sequence[Convergent],
                              alpha: RealNumber | RationalLike) -> bool:
    """Whether a convergent list interleaves correctly around alpha.

    Even-indexed convergents must increase strictly and sit below alpha,
    odd-indexed ones must decrease strictly and sit above, every even one
    below every odd one; only the final entry of a finite expansion may equal
    alpha.  Any deviation returns False (no partial credit for lists not
    produced by convergents()).
    """
    if not convs:
        return False
    if [c.index for c in convs] != list(range(len(convs))):
        return False
    alpha = as_real(alpha)
    evens = [c.value for c in convs if c.index % 2 == 0]
    odds = [c.value for c in convs if c.index % 2 == 1]
    if any(x >= y for x, y in zip(evens, evens[1:])):
        return False
    if any(x <= y for x, y in zip(odds, odds[1:])):
        return False
    if evens and odds and max(evens) >= min(odds):
        return False
    last = convs[-1]
    for c in convs:
        cmp = compare_real(alpha, c.value)
        want = GT if c.index % 2 == 0 else LT
        if cmp != want and not (cmp == EQ and c is last):
            return False
    return True
