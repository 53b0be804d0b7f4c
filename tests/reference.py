"""Unpruned references for statements (iii) and (iv), at a rational alpha and
at a quadratic irrational alpha given by its surd, and for (v)'s set at a
rational alpha.

The package prunes by one lemma for every real (see _kernel.py): at a
fixed denominator d only the integer nearest d*alpha can beat x, since the
form |d*alpha - c| and the radius grow strictly with the distance from c to
d*alpha.  That integer is unique at an irrational alpha; at a rational tie,
d*alpha a half-integer, both candidates have the same form, so the kernels
keep c0 = floor(d*alpha).  Nor does the package take a gcd.  These
references rely on neither step.  For x = a/b they compare x against every
reduced c/d != x with d <= b and |d*alpha - c| within |b*alpha - a| + 1; any
c farther out has a form, and a radius, strictly larger than x's.  Nothing
is imported from the package, so the pruned routes are held against code
they share nothing with.

A rational alpha is a Fraction and the arithmetic is plain Fraction.  An
irrational alpha is a surd (P, S, D, Q), the value (P + S*sqrt(D))/Q with
Q > 0, S = +-1 and D > 0 not a square, and every decision is the sign of
u + v*sqrt(D) in integers, read from isqrt.

(v)'s set is a scan of every b <= min(max_den, q), in plain integers, with
no split of the candidates by size.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from typing import Iterator


def _rivals(x: Fraction, alpha: Fraction) -> Iterator[tuple[int, int]]:
    a, b = x.numerator, x.denominator
    span = abs(b * alpha - a) + 1
    for d in range(1, b + 1):
        t = d * alpha
        for c in range(ceil(t - span), floor(t + span) + 1):
            if (c != a or d != b) and gcd(c, d) == 1:
                yield c, d


def best_approx(x: Fraction, alpha: Fraction) -> bool:
    """Statement (iii) by linear forms: |d*alpha - c| > |b*alpha - a| for
    every reduced rival c/d."""
    x, alpha = Fraction(x), Fraction(alpha)
    form = abs(x.denominator * alpha - x.numerator)
    return all(abs(d * alpha - c) > form for c, d in _rivals(x, alpha))


def nearby(x: Fraction, alpha: Fraction) -> bool:
    """Statement (iv) by squared radii: the horocircle at alpha tangent to the
    Ford circle at c/d has radius (d*alpha - c)^2 / 2, and every reduced
    rival's must exceed x's."""
    x, alpha = Fraction(x), Fraction(alpha)
    radius = (x.denominator * alpha - x.numerator) ** 2 / 2
    return all((d * alpha - c) ** 2 / 2 > radius for c, d in _rivals(x, alpha))


def witness_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (v) at alpha = p/q for every reduced a/b with b <= max_den:
    alpha == x, or alpha lies strictly inside (x, y) for the tangent
    neighbour y = c/d of x on alpha's side (c*b - d*a = +-1) with the least
    d > b, that is |b*p - a*q| * d < q.  Such a d is in (b, 2b], as the
    neighbours' denominators form one residue class mod b.  Only
    a = floor(b*p/q) and a + 1 are tried, as a witness has
    |b*alpha - a| < 1/d < 1, and no b > q, as a witness other than alpha has
    1 <= |b*p - a*q| < q/d < q/b."""
    found = set()
    for b in range(1, min(max_den, q) + 1):
        c0 = b * p // q
        for a in (c0, c0 + 1):
            lhs = b * p - a * q
            if gcd(a, b) != 1:
                continue
            side = 1 if lhs > 0 else -1
            d = 2 if b == 1 else (-side * pow(a, -1, b)) % b + b
            if lhs == 0 or abs(lhs) * d < q:
                found.add((a, b))
    return found


def _sign_sqrt(u: int, v: int, n: int) -> int:
    """The sign of u + v*sqrt(n) for n > 0 not a square: v*sqrt(n) is
    irrational for v != 0, so it lies strictly between isqrt(v*v*n) and
    isqrt(v*v*n) + 1 in absolute value, and u + |v|*sqrt(n) > 0 iff
    u + isqrt(v*v*n) >= 0."""
    if v == 0:
        return (u > 0) - (u < 0)
    if v < 0:
        return -_sign_sqrt(-u, -v, n)
    return 1 if u + isqrt(v * v * n) >= 0 else -1


def _sign_linear(k: int, m: int, surd: tuple[int, int, int, int]) -> int:
    """The sign of k*alpha - m: Q times it is (k*P - m*Q) + k*S*sqrt(D)."""
    p, s, n, q = surd
    return _sign_sqrt(k * p - m * q, k * s, n)


def _floor(k: int, surd: tuple[int, int, int, int]) -> int:
    """floor(k*alpha): a guess within a few units, moved by linear signs."""
    p, s, n, q = surd
    m = (k * p + s * isqrt(k * k * n)) // q
    while _sign_linear(k, m, surd) < 0:
        m -= 1
    while _sign_linear(k, m + 1, surd) > 0:
        m += 1
    return m


def _surd_rivals(x: Fraction, surd: tuple[int, int, int, int]) -> Iterator[tuple[int, int]]:
    # span >= |b*alpha - a| + 1, as |b*alpha - a| < |floor(b*alpha) - a| + 1,
    # and a c outside [m - span, m + span + 1], m = floor(d*alpha), is more
    # than span away from d*alpha
    a, b = x.numerator, x.denominator
    span = abs(_floor(b, surd) - a) + 2
    for d in range(1, b + 1):
        m = _floor(d, surd)
        for c in range(m - span, m + span + 2):
            if (c != a or d != b) and gcd(c, d) == 1:
                yield c, d


def best_approx_surd(x: Fraction, surd: tuple[int, int, int, int]) -> bool:
    """Statement (iii) by linear forms at a surd: with X = d*alpha - c and
    Y = b*alpha - a, |X| > |Y| iff (X - Y)*(X + Y) > 0, two linear signs."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return all(_sign_linear(d - b, c - a, surd) * _sign_linear(d + b, c + a, surd) > 0
               for c, d in _surd_rivals(x, surd))


def nearby_surd(x: Fraction, surd: tuple[int, int, int, int]) -> bool:
    """Statement (iv) by squared radii at a surd: 2*Q^2 times the radius at
    c/d is (u + v*sqrt(D))^2 = u^2 + v^2*D + 2*u*v*sqrt(D) with u = d*P - c*Q
    and v = d*S, and every reduced rival's must exceed x's."""
    x = Fraction(x)
    p, s, n, q = surd

    def squared(c: int, d: int) -> tuple[int, int]:
        u, v = d * p - c * q, d * s
        return u * u + v * v * n, 2 * u * v

    r0, w0 = squared(x.numerator, x.denominator)
    return all(_sign_sqrt(r - r0, w - w0, n) > 0
               for r, w in (squared(c, d) for c, d in _surd_rivals(x, surd)))
