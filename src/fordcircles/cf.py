"""Continued fractions: expansion, normalization, convergents, exact value."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .real import (
    EQ,
    GT,
    LT,
    CFStream,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_fraction,
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
    """A coefficient sequence [b0; b1, b2, ...], finite or infinite.

    Coefficients after the first must be >= 1.  Finite sequences of length
    two or more are normalized so the final coefficient is >= 2 (a trailing 1
    is merged into its predecessor), which makes the finite representation of
    every rational unique.  Infinite sequences wrap a coefficient stream and
    denote its irrational value.
    """

    __slots__ = ("_coeffs", "_stream")

    def __init__(self, coeffs: tuple[int, ...] | None, stream: CFStream | None):
        self._coeffs = coeffs
        self._stream = stream

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
        return cls(tuple(terms), None)

    @classmethod
    def from_stream(cls, stream: CFStream) -> "ContinuedFraction":
        return cls(None, stream)

    @property
    def finite(self) -> bool:
        return self._coeffs is not None

    @property
    def length(self) -> int | None:
        """Number of coefficients for a finite expansion, None for a stream."""
        return len(self._coeffs) if self._coeffs is not None else None

    def coefficients(self, limit: int | None = None) -> Iterator[int]:
        source: Iterator[int] | tuple[int, ...]
        if self._coeffs is not None:
            source = self._coeffs
        else:
            assert self._stream is not None
            source = self._stream.coefficients()
        for i, b in enumerate(source):
            if limit is not None and i >= limit:
                return
            yield b

    def __str__(self) -> str:
        if self._coeffs is not None:
            head, *tail = self._coeffs
            return f"[{head};{','.join(map(str, tail))}]" if tail else f"[{head}]"
        shown = list(self.coefficients(limit=9))
        head, tail = shown[0], shown[1:]
        return f"[{head};{','.join(map(str, tail))},...]"

    def __repr__(self) -> str:
        return f"ContinuedFraction({str(self)})"


def cf_of_rational(x: RationalLike) -> ContinuedFraction:
    """Euclidean expansion of a rational; the result never ends in 1.

    b0 = floor(x) and each subsequent step expands the reciprocal of the
    remainder, so all later coefficients are >= 1 and the final one is >= 2
    whenever there is more than one.
    """
    x = _as_fraction(x)
    p, q = x.numerator, x.denominator
    coeffs: list[int] = []
    while True:
        b, r = divmod(p, q)
        coeffs.append(b)
        if r == 0:
            break
        p, q = q, r
    return ContinuedFraction.from_coefficients(coeffs)


def cf_of_real(alpha: RealNumber | RationalLike) -> ContinuedFraction:
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return cf_of_rational(alpha.value)
    assert isinstance(alpha, CFStream)
    return ContinuedFraction.from_stream(alpha)


def convergents(cf: ContinuedFraction, count: int) -> list[Convergent]:
    """The first `count` convergents A_n/B_n of the expansion, each reduced
    (the recurrence and its determinant identity are in real.convergent_pairs).
    """
    count = _as_int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if cf.finite and count > cf.length:
        raise ValueError("expansion exhausted")
    pairs = convergent_pairs(cf.coefficients(limit=count))
    return [Convergent(n, num, den) for n, (num, den) in enumerate(pairs)]


def value(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite expansion."""
    if not cf.finite:
        raise ValueError("no finite value")
    last = convergents(cf, cf.length)[-1]
    return last.value


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
