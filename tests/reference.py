"""Unpruned references for statements (iii) and (iv) at a rational alpha.

The package prunes its candidates by the lemma in _kernel/_pure.py: only the
two integers nearest d*alpha at each denominator d, and no gcd in the
kernels.  These references rely on neither step.  For x = a/b they compare x
against every reduced c/d != x with d <= b and |d*alpha - c| within
|b*alpha - a| + 1; any c farther out has a form, and a radius, strictly
larger than x's.  The arithmetic is plain Fraction and nothing is imported
from the package, so the pruned routes are held against code they share
nothing with.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
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
