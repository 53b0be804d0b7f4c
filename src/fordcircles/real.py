"""Exact real arithmetic: rationals plus continued-fraction coefficient streams.

A real number is either an exact rational (``ExactReal``) or an irrational
value given by its infinite continued fraction coefficient stream
(``CFStream``), and walks its own ``coefficients()`` (the Euclidean expansion
of a rational) and ``convergent_pairs()``.  Every query is decided in
integers, by the engine the constructor fixes.  A rational p/q is the surd
(p, 0, 0, q), and a stream on periodic or square-root partials is a
quadratic irrational (Lagrange) with surd (P + S*sqrt(D))/Q, S = +-1, so a
comparison against a rational or the sign of a rational quadratic is one
integer sign test, and the floor of a ratio of linear forms
(``floor_ratio``) one closed form with ``isqrt``.  Any other stream reads
its integer convergent pairs, which strictly straddle the value, until they
decide; that terminates unless the quadratic vanishes at the stream
value.  Such a stream keeps one table of its convergent pairs, shared by
all its queries and grown on demand from one live
``convergent_pairs()`` walk, so each coefficient is pulled once per stream
rather than once per query, and a mark, the deepest bracket at which a query
was decided, where the next query starts: brackets nest, so a decision at
one bracket is the same decision at every later one.  The table is keyed on
the ``partials`` object it was built from and rebuilt, with the mark back at
bracket 1, when that object is replaced; it lives as long as the stream and
holds at most DEFAULT_MAX_PULLS + 1 pairs.  No floating-point value enters
or leaves this module.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import gcd, isqrt, lcm

LT, EQ, GT = -1, 0, 1

#: Hard cap on the bracket index of refinement, read by ``CFStream._numbered``
#: at each call: a query not decided by bracket n = DEFAULT_MAX_PULLS raises
#: RefinementExhausted, even when the stream's table already holds deeper
#: pairs, and the table never grows past that many coefficient pulls.  A query
#: that needs this many almost certainly means a rational value was smuggled
#: in as a stream, or a quadratic vanishing at a stream without a surd;
#: genuine irrational streams separate from any fixed rational after a
#: handful of convergents, and queries on a surd never refine brackets at all.
DEFAULT_MAX_PULLS = 10_000

RationalLike = int | Fraction

#: (P, S, D, Q) stands for (P + S*sqrt(D))/Q.
Surd = tuple[int, int, int, int]


class RefinementExhausted(RuntimeError):
    """Bracket refinement hit the coefficient-pull cap without deciding."""


class RealNumber:
    """Base class for exact real values; the constructor sets ``_surd``."""

    __slots__ = ("_surd",)

    def surd(self) -> Surd | None:
        """(P, S, D, Q) with value (P + S*sqrt(D))/Q, Q > 0, and either S = D = 0
        or S = +-1 with D not a square; None when queries walk ``brackets``."""
        return self._surd

    def describe(self) -> str:
        raise NotImplementedError

    def coefficients(self) -> Iterator[int]:
        """The continued fraction coefficients b0, b1, ... of the value."""
        raise NotImplementedError

    def convergent_pairs(self) -> Iterator[tuple[int, int]]:
        """(A_n, B_n) of each convergent; a stream's walk never ends, so the
        consumer stops it."""
        return convergent_pairs(self.coefficients())


class ExactReal(RealNumber):
    """A real number known exactly as a reduced rational."""

    __slots__ = ("value",)

    def __init__(self, value: RationalLike):
        self.value = _as_fraction(value)
        self._surd = (self.value.numerator, 0, 0, self.value.denominator)

    def coefficients(self) -> Iterator[int]:
        """The Euclidean expansion; it never ends in 1 after b0."""
        p, q = self.value.numerator, self.value.denominator
        while q:
            b, r = divmod(p, q)
            yield b
            p, q = q, r

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
        self.initial = tuple(map(_as_int, initial))
        self.period = tuple(map(_as_int, period))
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

    ``partials`` must be restartable (``iter()`` always begins anew; an
    iterator or generator raises TypeError) and yield integers >= 1; the
    represented value is b0 + 1/(p1 + 1/(p2 + ...)).  The stream never ends,
    hence the value is irrational by construction.  Finite expansions denote
    rationals and must be built as ``ExactReal`` instead.

    The engine is fixed here, from the type of ``partials``: a
    ``PeriodicCoefficients`` or ``_SqrtPartials`` gives the surd, anything
    else None.  Replacing ``partials`` later changes only the coefficient
    walks, never the engine.

    ``brackets()`` reads one table of convergent pairs (A_n, B_n) that all
    queries share, grown one coefficient at a time from a single live
    ``convergent_pairs()`` walk.  The table is keyed on the identity of
    ``partials``: when ``self.partials`` is not the object it was built from,
    it is dropped and rebuilt from the new one.  A walk that raises (a
    coefficient < 1 or not an integer, a stream that ended) drops it too, so
    the next query walks again and raises the same error.  It lives as long
    as the stream and holds at most DEFAULT_MAX_PULLS + 1 pairs.

    Next to the table the stream keeps the mark, the deepest bracket index
    at which a query was decided; the sign tests and floors start there
    instead of at bracket 1.  A rebuilt table puts it back at 1, and a query
    that raises RefinementExhausted leaves it as it was.  The lemma: as
    integer pairs, C_(n+1) = b_(n+1)*C_n + C_(n-1) is a positive combination
    of bracket n's ends, so brackets nest, and a decision at bracket n holds,
    with the same answer, at every later bracket:
      - a sign test, where the quadratic has one strict sign at both ends and
        its homogenised derivative keeps its sign: both are then so on the
        whole cone between the ends, which holds the later ends;
      - a floor, where the denominator has one strict sign at both ends and
        both ends give the same floor: the map is monotone on the cone.
    The cap is unchanged, because the index still counts from 1.

    For periodic partials, with A/B and A'/B' the last two convergents of
    the period block, the purely periodic tail y = (A*y + A')/(B*y + B') is
    the root > 1 of B*y^2 + (B' - A)*y - A' = 0, and the last two
    convergents C/E and C'/E' of [b0; initial...] give the value
    (C*y + C')/(E*y + E').
    """

    __slots__ = ("b0", "partials", "label", "_source", "_pairs", "_walk", "_mark")

    def __init__(self, b0: int, partials: Iterable[int], label: str | None = None):
        self.b0 = _as_int(b0)
        if iter(partials) is partials:
            raise TypeError("partials must be restartable, not an iterator or generator")
        self.partials = partials
        self.label = label
        self._source = None  # the partials the convergent table was built from
        if isinstance(partials, _SqrtPartials):
            self._surd = (self.b0 - isqrt(partials.n), 1, partials.n, 1)
        elif isinstance(partials, PeriodicCoefficients):
            # the seed 1/0 stands in for the convergent before a 1-term block
            (a1, b1), (a, b) = [(1, 0), *convergent_pairs(partials.period)][-2:]
            (c1, e1), (c, e) = [(1, 0), *convergent_pairs((self.b0, *partials.initial))][-2:]
            # y = (u + r)/v with r = sqrt(disc), so the value is
            # (n0 + c*r)/(m0 + e*r); multiply through by m0 - e*r
            u, v, disc = a - b1, 2 * b, (a - b1) ** 2 + 4 * b * a1
            n0, m0 = c * u + c1 * v, e * u + e1 * v
            p, s, q = n0 * m0 - c * e * disc, c * m0 - n0 * e, m0 * m0 - e * e * disc
            if q < 0:
                p, s, q = -p, -s, -q
            # fold |s| into the radicand, then cancel g from p, q and sqrt(d)
            sign, d = (1 if s > 0 else -1), s * s * disc
            g = gcd(gcd(p, q), d)
            while d % (g * g):
                g = gcd(g, d // g)
            self._surd = (p // g, sign, d // (g * g), q // g)
        else:
            self._surd = None

    def describe(self) -> str:
        return self.label if self.label is not None else f"cf:{self.b0};..."

    def __repr__(self) -> str:
        return f"CFStream({self.describe()!r})"

    def coefficients(self) -> Iterator[int]:
        yield self.b0
        for i, p in enumerate(iter(self.partials), start=1):
            if type(p) is not int or p < 1:  # one test for a valid partial
                p = _as_int(p)
                if p < 1:
                    raise ValueError(f"continued fraction coefficient {p} at index {i} is < 1")
            yield p

    def brackets(self) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
        """Consecutive convergent pairs ((A_{n-1}, B_{n-1}), (A_n, B_n)), n >= 1.

        The two convergents strictly straddle the value (even-indexed below,
        odd-indexed above), and A_n*B_{n-1} - A_{n-1}*B_n = +-1 makes the
        open bracket between them 1/(B_{n-1}*B_n) wide, shrinking to zero, so
        any question decidable from a rational neighbourhood terminates.  This
        walk starts at bracket 1 whatever the mark; the queries start at the
        mark (``_numbered``).
        """
        for _, lo, hi in self._numbered(False):
            yield lo, hi

    def _numbered(self, from_mark: bool) -> Iterator[tuple[int, tuple[int, int],
                                                          tuple[int, int]]]:
        """(n, (A_{n-1}, B_{n-1}), (A_n, B_n)) from bracket n = the mark, or
        from n = 1.

        The pairs come from the stream's table, which this loop extends by one
        pull of the live walk when it reaches the table's end; a rebuilt table
        puts the mark back at 1.  A question that is not decided by bracket
        DEFAULT_MAX_PULLS raises RefinementExhausted, however deep the table
        already is and wherever the walk started; this is the only loop that
        holds the cap.
        """
        if self._source is not self.partials:
            self._source = self.partials
            self._walk = convergent_pairs(self.coefficients())
            self._pairs = [next(self._walk)]  # (b0, 1) pulls no partial
            self._mark = 1
        pairs, walk = self._pairs, self._walk
        n = self._mark if from_mark else 1
        while True:
            if n > DEFAULT_MAX_PULLS:
                raise RefinementExhausted(
                    f"no decision after {DEFAULT_MAX_PULLS} coefficient pulls; "
                    "a finite value must be constructed as an exact rational"
                )
            if n == len(pairs):
                try:
                    pairs.append(next(walk))
                except BaseException as exc:
                    # a raising generator is spent: drop the table so that
                    # the next query walks again and meets the same error
                    if self._pairs is pairs:
                        self._source = None
                    if isinstance(exc, StopIteration):
                        raise ValueError(
                            "coefficient stream ended; finite expansions must be ExactReal"
                        ) from None
                    raise
            yield n, pairs[n - 1], pairs[n]
            n += 1


def convergent_pairs(coeffs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(A_n, B_n) for each coefficient b_n of [b_0; b_1, b_2, ...], in order.

    A_n = b_n*A_{n-1} + A_{n-2} and B_n = b_n*B_{n-1} + B_{n-2}, seeded by
    A_{-1}/B_{-1} = 1/0 and A_{-2}/B_{-2} = 0/1, so A_0/B_0 = b_0/1.
    Successive convergents satisfy A_n*B_{n-1} - A_{n-1}*B_n = (-1)^(n+1),
    so each is already reduced.  Every walk of a real's convergents runs
    here.  The one other copy is _kernel.conv_set, statement (i)'s set at a
    rational p/q for the sweep and for a check, the same recurrence on
    Euclid's quotients in integers: it builds no Fraction or real per
    alpha, and the kernels stay free of this module.
    """
    num, num_prev, den, den_prev = 1, 0, 0, 1
    for b in coeffs:
        num, num_prev = b * num + num_prev, num
        den, den_prev = b * den + den_prev, den
        yield num, den


def _reject_floats(*values: object) -> None:
    for v in values:
        if isinstance(v, float):
            raise TypeError("floating-point values are not accepted; construct an exact rational")


def _as_fraction(x: RationalLike) -> Fraction:
    """Fraction(x) for a rational argument; a float raises TypeError rather
    than being expanded to its binary value.  A Fraction is immutable, so it
    is returned as is."""
    if type(x) is Fraction:
        return x
    _reject_floats(x)
    return Fraction(x)


def _as_int(n: int) -> int:
    """operator.index(n): a float raises TypeError rather than truncating.
    An argument whose type is exactly int is returned as is, with no further
    test: the common case, and operator.index's own result for it."""
    if type(n) is int:
        return n
    _reject_floats(n)
    return operator.index(n)


def as_real(x: RealNumber | RationalLike) -> RealNumber:
    if isinstance(x, RealNumber):
        return x
    if isinstance(x, (int, float, Fraction)):
        return ExactReal(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact real")


def _sign(v: int) -> int:
    return GT if v > 0 else LT if v < 0 else EQ


def compare_real(alpha: RealNumber | RationalLike, q: RationalLike) -> int:
    """Exact three-way comparison of a real with a rational: LT, EQ or GT,
    the sign of the linear form den(q)*t - num(q) at t = alpha."""
    _reject_floats(q)
    return sign_of_quadratic(0, q.denominator, -q.numerator, alpha)


def sign_of_quadratic(q2: RationalLike, q1: RationalLike, q0: RationalLike,
                      alpha: RealNumber | RationalLike) -> int:
    """Exact sign of q2*t^2 + q1*t + q0 at t = alpha, in integers.

    Integer coefficients are used as they are; any other rationals are
    scaled to integers c2, c1, c0 by the lcm of their denominators.  At a
    surd t = (p + s*sqrt(d))/q, q^2 times the value is r + w*sqrt(d) with
    integers r and w; as s = d = 0 or d is not a square, r^2 == w^2*d only
    when both are 0, and otherwise the larger term sets the sign.  On a stream without
    a surd, f(a, b) = c2*a^2 + c1*a*b + c0*b^2 decides at a convergent pair,
    from the stream's mark on, once it has one strict sign at both ends and
    the derivative 2*c2*a + c1*b does not change sign strictly inside, so f
    is monotone on the bracket.
    That terminates unless the quadratic vanishes at alpha, which raises
    RefinementExhausted after DEFAULT_MAX_PULLS coefficient pulls.
    """
    if type(q2) is int and type(q1) is int and type(q0) is int:
        c2, c1, c0 = q2, q1, q0
    else:
        _reject_floats(q2, q1, q0)
        m = lcm(q2.denominator, q1.denominator, q0.denominator)
        c2 = q2.numerator * (m // q2.denominator)
        c1 = q1.numerator * (m // q1.denominator)
        c0 = q0.numerator * (m // q0.denominator)
    if not isinstance(alpha, RealNumber):
        alpha = as_real(alpha)
    if c2 == c1 == c0 == 0:
        return EQ
    surd = alpha.surd()
    if surd is not None:
        p, s, d, q = surd
        r = c2 * (p * p + d) + (c1 * p + c0 * q) * q
        w = s * (2 * c2 * p + c1 * q)
        return _sign(r) if r * r > w * w * d else _sign(w)
    for n, (a0, b0), (a1, b1) in alpha._numbered(True):
        f0 = (c2 * a0 + c1 * b0) * a0 + c0 * b0 * b0
        f1 = (c2 * a1 + c1 * b1) * a1 + c0 * b1 * b1
        if f0 * f1 > 0 and (2 * c2 * a0 + c1 * b0) * (2 * c2 * a1 + c1 * b1) >= 0:
            alpha._mark = n
            return _sign(f0)
    raise AssertionError("unreachable: brackets never end")


def floor_ratio(alpha: RealNumber | RationalLike, v1: int, u1: int, v2: int, u2: int) -> int:
    """floor((v1*alpha + u1)/(v2*alpha + u2)) for integers v1, u1, v2, u2,
    with a denominator of either sign; one that is zero at alpha raises
    ValueError, on brackets too, where the stream is irrational and only the
    zero form vanishes.  This is the one floor path of a real; statement
    (ii) at a rational p/q takes its floors from _kernel.chain_set instead,
    one divmod each, with no engine dispatch and no real per alpha.

    At a surd t = (p + s*sqrt(d))/q the ratio is (n + w*sqrt(d))/(m + e*sqrt(d))
    with n = v1*p + u1*q, w = v1*s, m = v2*p + u2*q and e = v2*s.  For e = 0,
    as at every rational (s = d = 0), it is (n + w*sqrt(d))/m; otherwise d is
    not a square and the conjugate m - e*sqrt(d) clears the denominator to
    the nonzero integer m^2 - e^2*d.  One flip makes m positive, and the
    floor is one integer division after floor(w*sqrt(d)).  On a stream
    without a surd the map is monotone on any bracket where its denominator
    has one strict sign at both ends, so it decides at the first such
    convergent pair from the stream's mark on with one floor at both ends.
    """
    if not isinstance(alpha, RealNumber):
        alpha = as_real(alpha)
    surd = alpha.surd()
    if surd is not None:
        p, s, d, q = surd
        n, w, m, e = v1 * p + u1 * q, v1 * s, v2 * p + u2 * q, v2 * s
        if e:
            n, w, m = n * m - w * e * d, w * m - n * e, m * m - e * e * d
        elif not m:
            raise ValueError("denominator is zero at alpha")
        if m < 0:
            n, w, m = -n, -w, -m
        # floor(w*sqrt(d)) is isqrt(w^2*d), less 1 when w < 0 (irrational)
        if w > 0:
            n += isqrt(w * w * d)
        elif w < 0:
            n -= isqrt(w * w * d) + 1
        return n // m
    if not v2 and not u2:
        raise ValueError("denominator is zero at alpha")
    for k, (a0, b0), (a1, b1) in alpha._numbered(True):
        m0, m1 = v2 * a0 + u2 * b0, v2 * a1 + u2 * b1
        if m0 * m1 > 0:
            f = (v1 * a0 + u1 * b0) // m0
            if f == (v1 * a1 + u1 * b1) // m1:
                alpha._mark = k
                return f
    raise AssertionError("unreachable: brackets never end")


def floor_scaled(alpha: RealNumber | RationalLike, k: int) -> int:
    """floor(k * alpha) for integer k >= 1, exactly: floor_ratio's case
    (k*alpha + 0)/(0*alpha + 1)."""
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    return floor_ratio(alpha, k, 0, 0, 1)


class _SqrtPartials:
    """Restartable partial quotients a_1, a_2, ... of sqrt(n), made lazily.

    Uses the integer recurrence on states (m, d): m' = d*a - m,
    d' = (n - m'^2)/d, a' = floor((a0 + m')/d'), which stays in integers and
    cycles.  The period can grow roughly like sqrt(n), so it is never
    collected: each ``iter()`` restarts the recurrence and yields on demand.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __iter__(self) -> Iterator[int]:
        n, a0 = self.n, isqrt(self.n)
        m, d, a = 0, 1, a0
        while True:
            m = d * a - m
            d = (n - m * m) // d
            a = (a0 + m) // d
            yield a


def sqrt_real(n: int) -> CFStream:
    """The square root of a nonsquare integer n >= 2 as a coefficient stream.

    Its coefficients come lazily from ``_SqrtPartials``, from which the
    stream takes its surd (0, 1, n, 1), so no query walks a period.
    """
    n = _as_int(n)
    if n < 2 or isqrt(n) ** 2 == n:
        raise ValueError("not a quadratic irrational")
    return CFStream(isqrt(n), _SqrtPartials(n), label=f"sqrt:{n}")


def golden_ratio() -> CFStream:
    """(1 + sqrt(5))/2, the stream with every coefficient equal to 1."""
    return CFStream(1, PeriodicCoefficients((1,)), label="golden")
