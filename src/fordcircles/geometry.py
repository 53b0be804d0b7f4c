"""Ford circles, horocircle radii, tangency and the radius comparison lemmas.

All geometry here is exact.  A Ford circle is fixed by its base point a/b:
its radius 1/(2*b^2) is derived by ``ford_radius``, the one place that
formula lives, and never stored.  Radii of horocircles based at a rational
point are ``Fraction`` values; radii of horocircles based at a coefficient
stream are ``QuadraticRadius`` objects, quadratics in the stream value with
integer coefficients over one positive integer denominator.  Two of them
are compared by cross-multiplying the denominators and taking the exact
sign of the resulting integer quadratic at the stream value (one test on a
periodic stream's surd, otherwise on integer convergent pairs), so no
``Fraction`` is built and nothing is ever evaluated numerically.  The
statement oracles build no radius object: (iv) compares squared forms in
integers at a rational, and at a stream's Farey proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .cf import convergents
from .real import (
    EQ,
    GT,
    LT,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_fraction,
    _reject_floats,
    as_real,
    compare_real,
    sign_of_quadratic,
)


def ford_radius(x: RationalLike) -> Fraction:
    """1/(2*b^2), the radius of the Ford circle at the reduced x = a/b."""
    b = _as_fraction(x).denominator
    return Fraction(1, 2 * b * b)


@dataclass(frozen=True)
class FordCircle:
    """The circle tangent to the real axis at `base`, of radius ford_radius(base)."""

    base: Fraction

    @property
    def radius(self) -> Fraction:
        return ford_radius(self.base)


def ford_circle(x: RationalLike) -> FordCircle:
    return FordCircle(_as_fraction(x))


def cf_chain(alpha: RealNumber | RationalLike, count: int) -> list[FordCircle]:
    """The first count circles of the continued fraction chain of alpha.

    Consecutive circles are tangent because consecutive convergents are
    unimodular; radii never increase and decrease strictly from index 1 on.
    """
    return [FordCircle(c.value) for c in convergents(as_real(alpha), count)]


@dataclass(frozen=True, eq=False)
class QuadraticRadius:
    """Lazily compared value (c2*t^2 + c1*t + c0)/den at the stream value t.

    The coefficients and the denominator are integers, den >= 1 (a negative
    den would flip every comparison).  Instances are only comparable with
    rationals or with other radii built on the same stream object; the
    comparison cross-multiplies the two positive denominators and reduces to
    the exact sign of an integer quadratic at the stream value.  They are
    unhashable: equal values can have different coefficients (at the golden
    ratio t^2 equals t + 1), so no hash can agree with ``==``.
    """

    alpha: RealNumber
    c2: int
    c1: int
    c0: int
    den: int = 1

    def __post_init__(self) -> None:
        if not type(self.c2) is type(self.c1) is type(self.c0) is type(self.den) is int:
            _reject_floats(self.c2, self.c1, self.c0, self.den)
            raise TypeError("radius coefficients and denominator must be integers")
        if self.den < 1:
            raise ValueError("radius denominator must be >= 1")

    def _coeffs_against(self, other: "QuadraticRadius | RationalLike") -> tuple[int, int, int]:
        if isinstance(other, QuadraticRadius):
            if other.alpha is not self.alpha:
                raise ValueError("radii built on different stream objects are not comparable")
            m, n = self.den, other.den
            return (self.c2 * n - other.c2 * m, self.c1 * n - other.c1 * m,
                    self.c0 * n - other.c0 * m)
        _reject_floats(other)
        k, n = other.numerator, other.denominator
        return (self.c2 * n, self.c1 * n, self.c0 * n - k * self.den)

    def compare(self, other: "QuadraticRadius | RationalLike") -> int:
        c2, c1, c0 = self._coeffs_against(other)
        return sign_of_quadratic(c2, c1, c0, self.alpha)

    def __eq__(self, other) -> bool:
        if isinstance(other, (QuadraticRadius, int, Fraction)):
            return self.compare(other) == EQ
        return NotImplemented


Radius = Union[Fraction, QuadraticRadius]


def compare_radii(r: Radius, s: Radius) -> int:
    """Exact three-way comparison of two radii: LT, EQ or GT."""
    if isinstance(r, QuadraticRadius):
        return r.compare(s)
    if isinstance(s, QuadraticRadius):
        return -s.compare(r)
    _reject_floats(r, s)
    return GT if r > s else LT if r < s else EQ


class GapRelation(Enum):
    TANGENT_EQUALITY = "tangent"
    STRICTLY_APART = "apart"


def are_tangent(x: RationalLike, y: RationalLike) -> bool:
    """Whether the Ford circles at x = a/b and y = c/d touch: |a*d - b*c| == 1."""
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise ValueError("identical circles")
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    return abs(a * d - b * c) == 1


def gap_relation(x: RationalLike, y: RationalLike) -> GapRelation:
    """Classify the gap |x - y|^2 - 4*r_x*r_y between two Ford circles.

    The gap is zero exactly at tangency and positive otherwise; a negative
    value would mean overlapping interiors, impossible for Ford circles at
    distinct reduced points, so that branch raises.
    """
    x, y = _as_fraction(x), _as_fraction(y)
    if x == y:
        raise ValueError("identical circles")
    gap = (x - y) ** 2 - 4 * ford_radius(x) * ford_radius(y)
    if gap == 0:
        return GapRelation.TANGENT_EQUALITY
    if gap > 0:
        return GapRelation.STRICTLY_APART
    raise RuntimeError("ford circles with overlapping interiors: invariant broken")


def tangent_horocircle_radius(alpha: RealNumber | RationalLike, x: RationalLike) -> Radius:
    """Radius of the horocircle based at alpha tangent to the Ford circle at x.

    For x = a/b the radius is (b*alpha - a)^2 / 2; it degenerates to 0 (a
    point circle) exactly when alpha == x.
    """
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return (b * alpha.value - a) ** 2 / 2
    return QuadraticRadius(alpha, b * b, -2 * a * b, a * a, 2)


def generic_tangent_radius(base: RealNumber | RationalLike, radius: Fraction,
                           z: RealNumber | RationalLike) -> Radius:
    """Radius of the circle based at z tangent to the circle (base, radius).

    For a circle of radius r based at x, the tangent circle based at z has
    radius |x - z|^2 / (4*r); coincident base points give the point circle of
    radius 0.  At most one of base and z may be a stream.
    """
    radius = _as_fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be > 0")
    base, z = as_real(base), as_real(z)
    if isinstance(base, ExactReal) and isinstance(z, ExactReal):
        return (base.value - z.value) ** 2 / (4 * radius)
    if isinstance(base, ExactReal):
        stream, point = z, base.value
    elif isinstance(z, ExactReal):
        stream, point = base, z.value
    else:
        raise ValueError("at most one of base and z may be a coefficient stream")
    # (t - u/v)^2 / (4*n/m) = m*(v*t - u)^2 / (4*n*v^2) for point u/v, radius n/m
    u, v = point.numerator, point.denominator
    n, m = radius.numerator, radius.denominator
    return QuadraticRadius(stream, m * v * v, -2 * m * u * v, m * u * u, 4 * n * v * v)


def lemma_x_check(x: RationalLike, y: RationalLike, z: RationalLike) -> bool:
    """Whether the circle at z, strictly between tangent circles at x and y,
    is smaller than both.

    Preconditions (violations raise): the circles at x and y are tangent and
    z lies strictly between x and y.  The check computes the three radii and
    compares them exactly.
    """
    x, y, z = _as_fraction(x), _as_fraction(y), _as_fraction(z)
    if x == y or not are_tangent(x, y):
        raise ValueError("not a between-tangent configuration")
    if not (min(x, y) < z < max(x, y)):
        raise ValueError("not a between-tangent configuration")
    rz = ford_radius(z)
    return rz < ford_radius(x) and rz < ford_radius(y)


def lemma_q_check(x: RationalLike, y: RationalLike,
                  alpha: RealNumber | RationalLike, z: RationalLike) -> bool:
    """Compare horocircle radii at alpha for a tangent pair and an outsider.

    Configuration (violations raise "configuration mismatch"): the circles at
    x and y are tangent with the one at x strictly larger, alpha lies
    strictly between x and y, and z is a rational strictly outside the closed
    interval [min(x, y), max(x, y)].  Returns whether the horocircle at alpha
    tangent to the circle at x is strictly smaller than the one tangent to
    the circle at z.
    """
    x, y, z = _as_fraction(x), _as_fraction(y), _as_fraction(z)
    if x == y or not are_tangent(x, y):
        raise ValueError("configuration mismatch")
    if not ford_radius(x) > ford_radius(y):
        raise ValueError("configuration mismatch")
    lo, hi = min(x, y), max(x, y)
    alpha = as_real(alpha)
    if not (compare_real(alpha, lo) == GT and compare_real(alpha, hi) == LT):
        raise ValueError("configuration mismatch")
    if lo <= z <= hi:
        raise ValueError("configuration mismatch")
    rx = tangent_horocircle_radius(alpha, x)
    rz = tangent_horocircle_radius(alpha, z)
    return compare_radii(rx, rz) == LT
