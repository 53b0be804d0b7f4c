"""The integer kernels agree with the Fraction-based statement oracles."""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd

import reference
from fordcircles import (
    reduced_fractions_in,
    statement_v_witness,
    theorem_u_check,
)
from fordcircles import _kernel
from fordcircles._kernel import _pure


def _pairs(max_den_x: int, max_den_alpha: int):
    xs = [x for x in reduced_fractions_in(F(-1), F(2), max_den_x)
          if x.denominator > 1]
    alphas = list(reduced_fractions_in(F(0), F(1), max_den_alpha,
                                       include_hi=False))
    for alpha in alphas:
        for x in xs:
            yield x.numerator, x.denominator, alpha.numerator, alpha.denominator


class TestAgainstHighLevel:
    def test_pure_matches_theorem_u_check(self):
        # the kernels and the unpruned Fraction references decide identically
        for a, b, p, q in _pairs(7, 7):
            x, alpha = F(a, b), F(p, q)
            assert _pure.best_flag(a, b, p, q) == reference.best_approx(x, alpha)
            assert _pure.near_flag(a, b, p, q) == reference.nearby(x, alpha)
            assert _pure.witness_flag(a, b, p, q) == theorem_u_check(x, alpha).stmt_v

    def test_witness_flag_matches_search(self):
        for a, b, p, q in _pairs(8, 8):
            found = statement_v_witness(F(a, b), F(p, q)) is not None
            assert _pure.witness_flag(a, b, p, q) == found


class TestNonReducedCandidates:
    """Small q with integer parts -3..3: c0 = floor(d*alpha) runs through 0
    and through multiples of q, where many candidates are not reduced."""

    def test_flags_and_sets_match_references(self):
        max_den = 12
        for q in range(1, max_den + 1):
            for p in range(-3 * q, 4 * q):
                if gcd(p, q) != 1:
                    continue
                best, near = set(), set()
                # a pair with |b*alpha - a| > 1/2 holds neither statement
                # (the nearer candidate at d = 1 beats it); the set
                # comparisons below confirm it for every b <= max_den
                for b in range(1, max_den + 1):
                    m = b * p // q
                    for a in range(m - 2, m + 4):
                        if gcd(a, b) != 1:
                            continue
                        x, alpha = F(a, b), F(p, q)
                        best_ok = reference.best_approx(x, alpha)
                        near_ok = reference.nearby(x, alpha)
                        assert _pure.best_flag(a, b, p, q) == best_ok, (x, alpha)
                        assert _pure.near_flag(a, b, p, q) == near_ok, (x, alpha)
                        if best_ok:
                            best.add((a, b))
                        if near_ok:
                            near.add((a, b))
                assert _pure.best_set(p, q, max_den) == best, (p, q)
                assert _pure.near_set(p, q, max_den) == near, (p, q)


class TestSizes:
    def test_pure_has_no_size_limit(self):
        big = 1 << 40
        assert isinstance(_pure.best_flag(1, 2, big + 1, 2 * big), bool)
        assert isinstance(_pure.near_flag(big - 1, big, 1, 3), bool)

    def test_backend_name(self):
        assert _kernel.backend_name() == "pure"
