"""Ford circles, gaps, horocircle radii, and the two radius lemmas."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fordcircles import (
    EQ,
    GT,
    LT,
    FordCircle,
    GapRelation,
    QuadraticRadius,
    are_tangent,
    compare_radii,
    ford_circle,
    gap_relation,
    generic_tangent_radius,
    golden_ratio,
    lemma_q_check,
    lemma_x_check,
    reduced_fractions_in,
    sign_of_quadratic,
    sqrt_real,
    tangent_horocircle_radius,
)
from test_exact_core import streams

POINTS = st.fractions(min_value=-5, max_value=12, max_denominator=60)


class TestFordCircle:
    @pytest.mark.parametrize("x,r", [
        (F(1, 2), F(1, 8)),
        (F(0), F(1, 2)),
        (F(3, 5), F(1, 50)),
        (F(-7, 2), F(1, 8)),
        (F(7), F(1, 2)),
    ])
    def test_radius(self, x, r):
        circle = ford_circle(x)
        assert circle.radius == r
        assert circle.base == x

    def test_invariant_enforced(self):
        # the radius is derived from the base, so it cannot be passed at all
        with pytest.raises(TypeError):
            FordCircle(F(1, 2), F(1, 4))
        assert FordCircle(F(1, 2)) == ford_circle(F(1, 2))


class TestTangency:
    def test_examples(self):
        assert are_tangent(F(0), F(1))
        assert are_tangent(F(1, 2), F(2, 3))
        assert are_tangent(F(1, 2), F(3, 5))
        assert not are_tangent(F(1, 3), F(3, 5))

    def test_identical_error(self):
        with pytest.raises(ValueError, match="identical circles"):
            are_tangent(F(1, 2), F(2, 4))

    def test_consecutive_farey_neighbors(self):
        f8 = sorted(reduced_fractions_in(F(0), F(1), 8))
        for x, y in zip(f8, f8[1:]):
            assert are_tangent(x, y)


class TestGapRelation:
    def test_examples(self):
        assert gap_relation(F(0), F(1)) is GapRelation.TANGENT_EQUALITY
        assert gap_relation(F(1, 3), F(3, 5)) is GapRelation.STRICTLY_APART
        assert gap_relation(F(1, 2), F(2, 3)) is GapRelation.TANGENT_EQUALITY

    def test_identical_error(self):
        with pytest.raises(ValueError, match="identical circles"):
            gap_relation(F(1, 2), F(1, 2))

    def test_equality_iff_tangent_sweep(self):
        points = list(reduced_fractions_in(F(0), F(1), 12))
        for x, y in combinations(points, 2):
            rel = gap_relation(x, y)
            want = GapRelation.TANGENT_EQUALITY if are_tangent(x, y) \
                else GapRelation.STRICTLY_APART
            assert rel is want


class TestTangentHorocircleRadius:
    def test_examples(self):
        assert tangent_horocircle_radius(F(1, 3), F(1, 2)) == F(1, 18)
        assert tangent_horocircle_radius(F(1, 2), F(1, 2)) == 0
        assert tangent_horocircle_radius(F(3, 5), F(1, 2)) == F(1, 50)

    def test_zero_iff_equal(self):
        pts = list(reduced_fractions_in(F(0), F(1), 8))
        for alpha in pts:
            for x in pts:
                r = tangent_horocircle_radius(alpha, x)
                assert (r == 0) == (alpha == x)

    def test_tangency_is_exact(self):
        # the horocircle at alpha with this radius is tangent to C_x:
        # |alpha - x|^2 == 4 * r_horo * r_ford
        for alpha in (F(1, 3), F(3, 5), F(7, 4), F(-2, 5)):
            for x in (F(0), F(1, 2), F(2, 3), F(1)):
                s = tangent_horocircle_radius(alpha, x)
                r = ford_circle(x).radius
                assert (alpha - x) ** 2 == 4 * s * r

    def test_stream_radius_comparisons(self):
        phi = golden_ratio()
        r_at_1 = tangent_horocircle_radius(phi, F(1))      # (phi-1)^2/2
        r_at_2 = tangent_horocircle_radius(phi, F(2))      # (phi-2)^2/2
        r_at_32 = tangent_horocircle_radius(phi, F(3, 2))  # (2phi-3)^2/2
        assert isinstance(r_at_1, QuadraticRadius)
        assert compare_radii(r_at_32, r_at_1) == LT
        assert compare_radii(r_at_32, r_at_2) == LT
        assert compare_radii(r_at_1, r_at_1) == EQ
        assert compare_radii(r_at_1, F(1, 2)) == LT

    def test_radii_on_different_streams_not_comparable(self):
        a = tangent_horocircle_radius(golden_ratio(), F(1))
        b = tangent_horocircle_radius(sqrt_real(2), F(1))
        with pytest.raises(ValueError, match="not comparable"):
            compare_radii(a, b)


class TestGenericTangentRadius:
    def test_examples(self):
        assert generic_tangent_radius(F(0), F(1, 2), F(1)) == F(1, 2)
        assert generic_tangent_radius(F(2, 7), F(1, 3), F(2, 7)) == 0
        assert generic_tangent_radius(F(1, 2), F(1, 8), F(1, 3)) == F(1, 18)

    def test_agrees_with_ford_route(self):
        # corollary consistency on a dense grid
        pts = list(reduced_fractions_in(F(0), F(1), 12))
        for x in pts:
            r = ford_circle(x).radius
            for alpha in pts:
                assert generic_tangent_radius(x, r, alpha) == \
                    tangent_horocircle_radius(alpha, x)

    def test_stream_argument(self):
        phi = golden_ratio()
        via_generic = generic_tangent_radius(F(3, 2), F(1, 8), phi)
        via_ford = tangent_horocircle_radius(phi, F(3, 2))
        assert compare_radii(via_generic, via_ford) == EQ
        # symmetric argument order
        swapped = generic_tangent_radius(phi, F(1, 8), F(3, 2))
        assert isinstance(swapped, QuadraticRadius)

    def test_equal_radii_at_a_surd(self):
        # (sqrt(2) - 0)^2 / (4 * 1/2) == 1: two equal radii, decided exactly
        r = generic_tangent_radius(F(0), F(1, 2), sqrt_real(2))
        assert compare_radii(r, 1) == EQ
        assert compare_radii(1, r) == EQ
        assert r == 1

    def test_stream_radius_unhashable(self):
        # equal values with different coefficients: no hash agrees with ==
        r = QuadraticRadius(sqrt_real(2), 1, 0, 0)
        assert r == 2
        phi = golden_ratio()
        assert QuadraticRadius(phi, 1, 0, 0) == QuadraticRadius(phi, 0, 1, 1)
        with pytest.raises(TypeError):
            hash(r)

    def test_stream_radius_input_checked(self):
        # a nonpositive denominator would flip or void every comparison
        for den in (0, -2):
            with pytest.raises(ValueError, match="denominator"):
                QuadraticRadius(golden_ratio(), 1, 0, 0, den)
        # a Fraction coefficient is rejected, not silently compared
        with pytest.raises(TypeError, match="integers"):
            QuadraticRadius(golden_ratio(), F(1, 2), 0, 0)
        with pytest.raises(TypeError, match="integers"):
            QuadraticRadius(golden_ratio(), 1, 0, 0, F(2))

    def test_two_streams_rejected(self):
        with pytest.raises(ValueError, match="at most one"):
            generic_tangent_radius(golden_ratio(), F(1, 2), sqrt_real(2))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            generic_tangent_radius(F(0), F(0), F(1))


class TestIntegerRadii:
    """Stream radii held in integers against the rational route: the same
    quadratics with Fraction coefficients, cleared by sign_of_quadratic's lcm."""

    @settings(deadline=None)
    @given(streams(), POINTS, POINTS)
    def test_comparison_matches_fraction_quadratic(self, spec, x, y):
        alpha, _ = spec
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        # (b*t - a)^2/2 - (d*t - c)^2/2 never vanishes at an irrational t
        # unless x == y, where every coefficient is 0
        expected = sign_of_quadratic(F(b * b - d * d, 2), F(c * d - a * b),
                                     F(a * a - c * c, 2), alpha)
        assert compare_radii(tangent_horocircle_radius(alpha, x),
                             tangent_horocircle_radius(alpha, y)) == expected

    @settings(deadline=None)
    @given(streams(), POINTS.filter(lambda x: x.denominator > 1))
    def test_generic_radius_matches_tangent_radius(self, spec, x):
        # denominators 4*n*v*v (here 4*v*v) and 2 are cross-multiplied
        alpha, _ = spec
        generic = generic_tangent_radius(x, ford_circle(x).radius, alpha)
        assert generic.den == 4 * x.denominator ** 2
        assert compare_radii(generic, tangent_horocircle_radius(alpha, x)) == EQ


class TestLemmaX:
    def test_examples(self):
        assert lemma_x_check(F(1, 2), F(2, 3), F(3, 5))
        assert lemma_x_check(F(0), F(1), F(1, 2))
        assert lemma_x_check(F(0), F(1), F(2, 5))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="not a between-tangent configuration"):
            lemma_x_check(F(1, 3), F(3, 5), F(1, 2))   # not tangent
        with pytest.raises(ValueError, match="not a between-tangent configuration"):
            lemma_x_check(F(0), F(1), F(3, 2))          # outside
        with pytest.raises(ValueError, match="not a between-tangent configuration"):
            lemma_x_check(F(0), F(1), F(0))             # endpoint

    def test_always_true_sweep(self):
        pts = sorted(reduced_fractions_in(F(0), F(1), 10))
        between = list(reduced_fractions_in(F(0), F(1), 20))
        for x, y in combinations(pts, 2):
            if not are_tangent(x, y):
                continue
            lo, hi = min(x, y), max(x, y)
            for z in between:
                if lo < z < hi:
                    assert lemma_x_check(x, y, z)


class TestLemmaQ:
    def test_examples(self):
        assert lemma_q_check(F(1, 2), F(2, 3), F(3, 5), F(1))
        assert lemma_q_check(F(1, 2), F(2, 3), F(3, 5), F(0))
        assert lemma_q_check(F(0), F(1, 2), F(1, 3), F(1))

    def test_preconditions(self):
        # not tangent
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(1, 3), F(3, 5), F(1, 2), F(1))
        # rad(C_x) not larger
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(2, 3), F(1, 2), F(3, 5), F(1))
        # alpha not strictly between
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(1, 2), F(2, 3), F(3, 4), F(1))
        # z inside the closed interval
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(1, 2), F(2, 3), F(3, 5), F(3, 5))
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(1, 2), F(2, 3), F(3, 5), F(1, 2))

    def test_always_true_sweep(self):
        pts = sorted(reduced_fractions_in(F(0), F(1), 7))
        outsiders = [F(-1, 3), F(-1), F(3, 2), F(2), F(9, 8), F(-2, 5)]
        alphas = list(reduced_fractions_in(F(0), F(1), 9))
        for x, y in combinations(pts, 2):
            if not are_tangent(x, y) or x.denominator >= y.denominator:
                continue
            lo, hi = min(x, y), max(x, y)
            for alpha in alphas:
                if not lo < alpha < hi:
                    continue
                for z in outsiders:
                    if lo <= z <= hi:
                        continue
                    assert lemma_q_check(x, y, alpha, z)

    def test_stream_alpha(self):
        # phi lies in (3/2, 5/3); C_{3/2} is larger than C_{5/3}; z outside
        phi = golden_ratio()
        assert lemma_q_check(F(3, 2), F(5, 3), phi, F(1))
        assert lemma_q_check(F(3, 2), F(5, 3), phi, F(2))
        with pytest.raises(ValueError, match="configuration mismatch"):
            lemma_q_check(F(3, 2), F(5, 3), sqrt_real(2), F(1))
