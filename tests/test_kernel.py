"""The integer kernels agree with the Fraction-based statement oracles."""

from __future__ import annotations

from fractions import Fraction as F

from fordcircles import (
    is_best_approx_2nd,
    is_nearby,
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
        # the kernels and the unpruned Fraction routes decide identically
        for a, b, p, q in _pairs(7, 7):
            x, alpha = F(a, b), F(p, q)
            assert _pure.best_flag(a, b, p, q) == \
                is_best_approx_2nd(x, alpha, exhaustive=True)
            assert _pure.near_flag(a, b, p, q) == is_nearby(x, alpha, exhaustive=True)
            assert _pure.witness_flag(a, b, p, q) == theorem_u_check(x, alpha).stmt_v

    def test_witness_flag_matches_search(self):
        for a, b, p, q in _pairs(8, 8):
            found = statement_v_witness(F(a, b), F(p, q)) is not None
            assert _pure.witness_flag(a, b, p, q) == found


class TestSizes:
    def test_pure_has_no_size_limit(self):
        big = 1 << 40
        assert isinstance(_pure.best_flag(1, 2, big + 1, 2 * big), bool)
        assert isinstance(_pure.near_flag(big - 1, big, 1, 3), bool)

    def test_backend_name(self):
        assert _kernel.backend_name() == "pure"
