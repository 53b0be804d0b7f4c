"""Exact real arithmetic: rationals plus continued-fraction coefficient streams.

A real number is either an exact rational (``ExactReal``) or an irrational
value given by its infinite continued fraction coefficient stream
(``CFStream``).  Streams are refined lazily through nested convergent
brackets, so every comparison against a rational, and every sign query for a
rational quadratic, is an exact decision that terminates.  No floating-point
value enters or leaves this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt
from typing import Iterable, Iterator, Union

LT, EQ, GT = -1, 0, 1

#: Hard cap on coefficient pulls during bracket refinement.  A query that
#: needs this many pulls almost certainly means a rational value was smuggled
#: in as a stream; genuine irrational streams separate from any fixed
#: rational after a handful of convergents.
DEFAULT_MAX_PULLS = 10_000

RationalLike = Union[int, Fraction]


class RefinementExhausted(RuntimeError):
    """Bracket refinement hit the coefficient-pull cap without deciding."""


class RealNumber:
    """Base class for exact real values."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError


class ExactReal(RealNumber):
    """A real number known exactly as a reduced rational."""

    __slots__ = ("value",)

    def __init__(self, value: RationalLike):
        self.value = Fraction(value)

    def describe(self) -> str:
        v = self.value
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)

    def __repr__(self) -> str:
        return f"ExactReal({str(self.value)!r})"


class PeriodicCoefficients:
    """Restartable coefficient provider: optional initial block, then a cycle.

    ``iter()`` may be called any number of times and always restarts from the
    beginning, which is what lets a single stream object serve many
    independent refinement passes.
    """

    __slots__ = ("initial", "period")

    def __init__(self, period: Iterable[int], initial: Iterable[int] = ()):
        self.initial = tuple(int(p) for p in initial)
        self.period = tuple(int(p) for p in period)
        if not self.period:
            raise ValueError("empty period")
        for p in self.initial + self.period:
            if p < 1:
                raise ValueError("continued fraction coefficients after the first must be >= 1")

    def __iter__(self) -> Iterator[int]:
        yield from self.initial
        while True:
            yield from self.period


class CFStream(RealNumber):
    """An irrational real given by its continued fraction coefficients.

    ``partials`` must be restartable (``iter()`` always begins anew) and yield
    integers >= 1; the represented value is b0 + 1/(p1 + 1/(p2 + ...)).  The
    stream never ends, hence the value is irrational by construction.  Finite
    expansions denote rationals and must be built as ``ExactReal`` instead.
    """

    __slots__ = ("b0", "partials", "label")

    def __init__(self, b0: int, partials: Iterable[int], label: str | None = None):
        self.b0 = int(b0)
        self.partials = partials
        self.label = label

    def describe(self) -> str:
        return self.label if self.label is not None else f"cf:{self.b0};..."

    def __repr__(self) -> str:
        return f"CFStream({self.describe()!r})"

    def coefficients(self) -> Iterator[int]:
        yield self.b0
        for i, p in enumerate(iter(self.partials), start=1):
            p = int(p)
            if p < 1:
                raise ValueError(f"continued fraction coefficient {p} at index {i} is < 1")
            yield p

    def convergent_pairs(self) -> Iterator[tuple[int, int]]:
        """(A_n, B_n) of each convergent, unbounded: the consumer stops it."""
        return convergent_pairs(self.coefficients())

    def brackets(self, max_pulls: int = DEFAULT_MAX_PULLS) -> Iterator[tuple[Fraction, Fraction]]:
        """Nested open intervals (lo, hi) that strictly contain the value.

        Consecutive convergents straddle the value (even-indexed below,
        odd-indexed above) and their gap 1/(B_n * B_{n-1}) shrinks to zero,
        so any question decidable from a rational neighbourhood terminates.
        A question that is not decided after max_pulls coefficients raises
        RefinementExhausted.
        """
        prev: Fraction | None = None
        for n, (num, den) in enumerate(self.convergent_pairs()):
            if n > max_pulls:
                raise RefinementExhausted(
                    f"no decision after {max_pulls} coefficient pulls; "
                    "a finite value must be constructed as an exact rational"
                )
            cur = Fraction(num, den)
            if prev is not None:
                yield (prev, cur) if n % 2 else (cur, prev)
            prev = cur
        raise ValueError(
            "coefficient stream ended; finite expansions must be ExactReal"
        )


def convergent_pairs(coeffs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(A_n, B_n) for each coefficient b_n of [b_0; b_1, b_2, ...], in order.

    A_n = b_n*A_{n-1} + A_{n-2} and B_n = b_n*B_{n-1} + B_{n-2}, seeded by
    A_{-1}/B_{-1} = 1/0 and A_{-2}/B_{-2} = 0/1, so A_0/B_0 = b_0/1.
    Successive convergents satisfy A_n*B_{n-1} - A_{n-1}*B_n = (-1)^(n+1),
    so each is already reduced.  This is the only place the recurrence lives.
    """
    num, num_prev, den, den_prev = 1, 0, 0, 1
    for b in coeffs:
        num, num_prev = b * num + num_prev, num
        den, den_prev = b * den + den_prev, den
        yield num, den


def as_real(x: RealNumber | RationalLike) -> RealNumber:
    if isinstance(x, RealNumber):
        return x
    if isinstance(x, float):
        raise TypeError("floating-point values are not accepted; construct an exact rational")
    if isinstance(x, (int, Fraction)):
        return ExactReal(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact real")


def _sign(v: Fraction) -> int:
    return GT if v > 0 else LT if v < 0 else EQ


def compare_real(alpha: RealNumber | RationalLike, q: RationalLike,
                 *, max_pulls: int = DEFAULT_MAX_PULLS) -> int:
    """Exact three-way comparison of a real with a rational: LT, EQ or GT."""
    q = Fraction(q)
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return _sign(alpha.value - q)
    for lo, hi in alpha.brackets(max_pulls):
        if q <= lo:
            return GT
        if q >= hi:
            return LT
    raise AssertionError("unreachable: brackets() never returns normally")


def sign_of_quadratic(q2: RationalLike, q1: RationalLike, q0: RationalLike,
                      alpha: RealNumber | RationalLike,
                      *, max_pulls: int = DEFAULT_MAX_PULLS) -> int:
    """Exact sign of q2*t^2 + q1*t + q0 at t = alpha.

    For a stream this brackets the exact range of the quadratic over each
    refinement interval (endpoint values, plus the vertex value when the
    vertex lies inside); the loop terminates whenever the quadratic is
    nonzero at alpha.  A quadratic vanishing at alpha never decides and hits
    the pull cap, so callers must not ask about polynomials whose root the
    stream encodes.
    """
    q2, q1, q0 = Fraction(q2), Fraction(q1), Fraction(q0)
    alpha = as_real(alpha)

    def at(t: Fraction) -> Fraction:
        return (q2 * t + q1) * t + q0

    if isinstance(alpha, ExactReal):
        return _sign(at(alpha.value))
    if q2 == q1 == q0 == 0:
        return EQ
    for lo, hi in alpha.brackets(max_pulls):
        values = [at(lo), at(hi)]
        if q2 != 0:
            vertex = -q1 / (2 * q2)
            if lo < vertex < hi:
                values.append(at(vertex))
        if min(values) > 0:
            return GT
        if max(values) < 0:
            return LT
    raise AssertionError("unreachable: brackets() never returns normally")


def compare_linear_forms(d: int, c: int, b: int, a: int,
                         alpha: RealNumber | RationalLike,
                         *, max_pulls: int = DEFAULT_MAX_PULLS) -> int:
    """Compare |d*alpha - c| against |b*alpha - a| exactly.

    Returns GT when the first form is strictly larger, LT when strictly
    smaller, EQ when equal.  Works through the sign of the difference of
    squares, a rational quadratic in alpha.  For a stream the quadratic is
    identically zero only when (d, c) == (b, a), and never merely vanishes at
    the (irrational) stream value, so the refinement always terminates.
    """
    if d < 1 or b < 1:
        raise ValueError("denominators of linear forms must be >= 1")
    if d == b and c == a:
        return EQ
    return sign_of_quadratic(d * d - b * b, -2 * (d * c - b * a), c * c - a * a,
                             alpha, max_pulls=max_pulls)


def floor_scaled(alpha: RealNumber | RationalLike, k: int,
                 *, max_pulls: int = DEFAULT_MAX_PULLS) -> int:
    """floor(k * alpha) for integer k >= 1, exactly."""
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return floor(k * alpha.value)
    for lo, hi in alpha.brackets(max_pulls):
        flo, fhi = floor(k * lo), floor(k * hi)
        if flo == fhi:
            return flo
    raise AssertionError("unreachable: brackets() never returns normally")


def sqrt_real(n: int) -> CFStream:
    """The square root of a nonsquare integer n >= 2 as a coefficient stream.

    Uses the integer recurrence on states (m, d): m' = d*a - m,
    d' = (n - m'^2)/d, a' = floor((a0 + m')/d'), which stays in integers and
    cycles; the period of such an expansion always closes with the
    coefficient 2*a0, so the loop collects exactly one period.
    """
    n = int(n)
    if n < 2 or isqrt(n) ** 2 == n:
        raise ValueError("not a quadratic irrational")
    a0 = isqrt(n)
    period: list[int] = []
    m, d, a = 0, 1, a0
    while True:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        period.append(a)
        if a == 2 * a0:
            break
    return CFStream(a0, PeriodicCoefficients(period), label=f"sqrt:{n}")


def golden_ratio() -> CFStream:
    """(1 + sqrt(5))/2, the stream with every coefficient equal to 1."""
    return CFStream(1, PeriodicCoefficients((1,)), label="golden")
