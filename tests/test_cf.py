"""Continued fraction expansion, normalization, convergents, and value."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from fordcircles import (
    CFStream,
    ContinuedFraction,
    Convergent,
    ExactReal,
    PeriodicCoefficients,
    cf_chain,
    cf_of_rational,
    convergent_ordering_check,
    convergents,
    golden_ratio,
    sqrt_real,
    value,
)


def coeffs(cf: ContinuedFraction) -> list[int]:
    return list(cf.coefficients())


def both_kinds(x: F) -> tuple[ContinuedFraction, ExactReal]:
    """The finite expansion of x and x itself: convergents() takes either."""
    return cf_of_rational(x), ExactReal(x)


class TestExpansion:
    @pytest.mark.parametrize("num,den,expected", [
        (3, 5, [0, 1, 1, 2]),
        (7, 1, [7]),
        (355, 113, [3, 7, 16]),
        (1, 2, [0, 2]),
        (-7, 2, [-4, 2]),
        (1, 1, [1]),
        (0, 1, [0]),
        (2, 7, [0, 3, 2]),
    ])
    def test_euclidean(self, num, den, expected):
        assert coeffs(cf_of_rational(F(num, den))) == expected

    def test_str_form(self):
        assert str(cf_of_rational(F(3, 5))) == "[0;1,1,2]"
        assert str(cf_of_rational(F(7))) == "[7]"

    @given(st.fractions(max_denominator=300))
    def test_never_ends_in_one(self, x):
        terms = coeffs(cf_of_rational(x))
        if len(terms) > 1:
            assert terms[-1] >= 2
        for b in terms[1:]:
            assert b >= 1

    def test_trailing_one_merged(self):
        assert coeffs(ContinuedFraction.from_coefficients([0, 1, 1, 1, 1])) == [0, 1, 1, 2]
        assert coeffs(ContinuedFraction.from_coefficients([3, 1])) == [4]
        # and the merge preserves the value
        assert value(ContinuedFraction.from_coefficients([0, 1, 1, 1, 1])) == F(3, 5)
        assert value(ContinuedFraction.from_coefficients([3, 1])) == 4

    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ContinuedFraction.from_coefficients([1, 0, 2])
        with pytest.raises(ValueError):
            ContinuedFraction.from_coefficients([])

    def test_reals_walk_their_coefficients(self):
        assert list(ExactReal(F(3, 5)).coefficients()) == [0, 1, 1, 2]
        assert cf_of_rational(F(3, 5)).length == 4
        assert list(islice(golden_ratio().coefficients(), 5)) == [1, 1, 1, 1, 1]
        assert list(islice(sqrt_real(2).coefficients(), 4)) == [1, 2, 2, 2]


class TestConvergents:
    def test_three_fifths(self):
        for expansion in both_kinds(F(3, 5)):
            convs = convergents(expansion, 4)
            assert [(c.num, c.den) for c in convs] == [(0, 1), (1, 1), (1, 2), (3, 5)]
            assert [c.index for c in convs] == [0, 1, 2, 3]

    def test_golden(self):
        convs = convergents(golden_ratio(), 5)
        assert [str(c) for c in convs] == ["1/1", "2/1", "3/2", "5/3", "8/5"]

    def test_integer(self):
        for expansion in both_kinds(F(7)):
            convs = convergents(expansion, 1)
            assert [(c.num, c.den) for c in convs] == [(7, 1)]

    def test_exhaustion(self):
        for expansion in both_kinds(F(3, 5)):
            with pytest.raises(ValueError, match="expansion exhausted"):
                convergents(expansion, 5)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            convergents(cf_of_rational(F(3, 5)), 0)

    @given(st.fractions(max_denominator=400))
    def test_determinant_and_growth(self, x):
        cf = cf_of_rational(x)
        convs = convergents(cf, cf.length)
        for prev, cur in zip(convs, convs[1:]):
            assert abs(cur.num * prev.den - prev.num * cur.den) == 1
        dens = [c.den for c in convs]
        assert dens[0] == 1
        # B_1 <= B_2 < B_3 < ... strictly from index 1 onward
        for i in range(1, len(dens) - 1):
            assert dens[i] < dens[i + 1]
        if len(dens) >= 2:
            assert dens[0] <= dens[1]

    @given(st.integers(-50, 50),
           st.lists(st.integers(1, 60), min_size=1, max_size=4),
           st.lists(st.integers(1, 60), max_size=4),
           st.integers(1, 30))
    def test_stream_determinant_and_growth(self, b0, period, initial, n):
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        convs = convergents(stream, n)
        for k in range(1, n):
            prev, cur = convs[k - 1], convs[k]
            assert cur.num * prev.den - prev.num * cur.den == (-1) ** (k + 1)
        dens = [c.den for c in convs]
        assert dens[0] == 1
        # B_{n+1} = b_{n+1}*B_n + B_{n-1} > B_n once B_{n-1} >= 1, i.e. from index 1
        for i in range(1, n - 1):
            assert dens[i] < dens[i + 1]
        assert [c.base for c in cf_chain(stream, n)] == [c.value for c in convs]

    def test_sqrt3_convergents(self):
        convs = convergents(sqrt_real(3), 10)
        assert [str(c) for c in convs] == [
            "1/1", "2/1", "5/3", "7/4", "19/11", "26/15",
            "71/41", "97/56", "265/153", "362/209",
        ]


class TestValue:
    @pytest.mark.parametrize("terms,expected", [
        ([0, 1, 1, 2], F(3, 5)),
        ([7], F(7)),
        ([3, 7, 16], F(355, 113)),
        ([-4, 2], F(-7, 2)),
    ])
    def test_examples(self, terms, expected):
        assert value(ContinuedFraction.from_coefficients(terms)) == expected

    @given(st.fractions(max_denominator=500))
    def test_round_trip(self, x):
        assert value(cf_of_rational(x)) == x


class TestOrderingCheck:
    def test_rational_with_final_equality(self):
        convs = convergents(cf_of_rational(F(3, 5)), 4)
        assert convergent_ordering_check(convs, F(3, 5))

    def test_golden(self):
        convs = convergents(golden_ratio(), 5)
        assert convergent_ordering_check(convs, golden_ratio())

    def test_swapped_list_fails(self):
        convs = convergents(cf_of_rational(F(3, 5)), 4)
        swapped = [convs[0], convs[2], convs[1], convs[3]]
        assert not convergent_ordering_check(swapped, F(3, 5))

    def test_wrong_alpha_fails(self):
        convs = convergents(cf_of_rational(F(3, 5)), 4)
        assert not convergent_ordering_check(convs, F(2, 5))

    def test_forged_entry_fails(self):
        # an even-indexed entry above alpha violates the interleaving
        convs = convergents(cf_of_rational(F(3, 5)), 4)
        forged = list(convs)
        forged[2] = Convergent(2, 9, 10)
        assert not convergent_ordering_check(forged, F(3, 5))

    def test_empty_fails(self):
        assert not convergent_ordering_check([], F(1, 2))

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=80))
    def test_holds_for_all_expansions(self, x):
        cf = cf_of_rational(x)
        convs = convergents(cf, cf.length)
        assert convergent_ordering_check(convs, x)
