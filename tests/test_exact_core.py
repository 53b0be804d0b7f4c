"""Rational enumeration and the exact-real comparison layer."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import islice, repeat
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fordcircles import (
    EQ,
    GT,
    LT,
    CFStream,
    ExactReal,
    PeriodicCoefficients,
    RefinementExhausted,
    as_real,
    compare_real,
    floor_scaled,
    golden_ratio,
    reduced_fractions_in,
    sign_of_quadratic,
    sqrt_real,
)
from fordcircles import real
from fordcircles.rational import _reduced_runs


class Plain:
    """A restartable coefficient iterable that is not a PeriodicCoefficients,
    so a stream built on it is decided by bracket refinement."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __iter__(self):
        return iter(self.coeffs)


def bracket_twin(stream: CFStream) -> CFStream:
    """The same value as a periodic stream, on the bracket engine."""
    return CFStream(stream.b0, Plain(stream.partials))


def bracket_bounds(stream: CFStream):
    """(lo, hi) of each bracket, read from its integer convergent pair."""
    for pair in stream.brackets():
        yield tuple(sorted(F(a, b) for a, b in pair))


#: Streams with their surds (P, S, D, Q), the value (P + S*sqrt(D))/Q,
#: worked out by hand from the period; a straddle test in test_verify.py
#: checks each.
SURD_STREAMS = {
    "golden": (golden_ratio, (1, 1, 5, 2)),
    "sqrt:2": (lambda: sqrt_real(2), (0, 1, 2, 1)),
    "sqrt:3": (lambda: sqrt_real(3), (0, 1, 3, 1)),
    "sqrt:7": (lambda: sqrt_real(7), (0, 1, 7, 1)),
    "sqrt:13": (lambda: sqrt_real(13), (0, 1, 13, 1)),
    "sqrt:94": (lambda: sqrt_real(94), (0, 1, 94, 1)),
    # b0 on the partials of sqrt:n is b0 - isqrt(n) + sqrt(n)
    "-2;sqrt:7": (lambda: CFStream(-2, sqrt_real(7).partials), (-4, 1, 7, 1)),
    "5;sqrt:13": (lambda: CFStream(5, sqrt_real(13).partials), (2, 1, 13, 1)),
    # the tail y = [1;3,1,3,...] solves 3y^2 - 3y - 1 = 0
    "cf:1;2,(1,3)": (lambda: CFStream(1, PeriodicCoefficients((1, 3), (2,))),
                     (9, 1, 21, 10)),
    # the tail y = [2;5,1,...] solves 6y^2 - 8y - 11 = 0, and alpha = 1/y
    "cf:0;(2,5,1)": (lambda: CFStream(0, PeriodicCoefficients((2, 5, 1))),
                     (-4, 1, 82, 11)),
    "cf:-3;(1)": (lambda: CFStream(-3, PeriodicCoefficients((1,))), (-7, 1, 5, 2)),
    # 3 - sqrt(2) = [1;1,1,2,2,...], whose surd has S = -1
    "cf:1;1,1,(2)": (lambda: CFStream(1, PeriodicCoefficients((2,), (1, 1))),
                     (3, -1, 2, 1)),
}


class TestReducedFractionsIn:
    def test_farey_5(self):
        f5 = list(reduced_fractions_in(F(0), F(1), 5))
        assert len(f5) == 11
        assert set(f5) == {F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4),
                           F(3, 4), F(1, 5), F(2, 5), F(3, 5), F(4, 5)}

    def test_ordering_by_den_then_num(self):
        seq = list(reduced_fractions_in(F(0), F(1), 4))
        keys = [(x.denominator, x.numerator) for x in seq]
        assert keys == sorted(keys)

    def test_open_endpoints(self):
        inner = list(reduced_fractions_in(F(0), F(1), 5,
                                          include_lo=False, include_hi=False))
        assert F(0) not in inner and F(1) not in inner
        assert len(inner) == 9

    def test_each_value_once(self):
        seq = list(reduced_fractions_in(F(-1), F(2), 8))
        assert len(seq) == len(set(seq))

    def test_half_open_window(self):
        seq = list(reduced_fractions_in(F(0), F(2), 1, include_hi=False))
        assert seq == [F(0), F(1)]

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=12),
           st.fractions(min_value=0, max_value=3, max_denominator=12),
           st.integers(1, 12), st.booleans(), st.booleans())
    def test_matches_a_filter_over_fractions(self, lo, width, max_den, include_lo, include_hi):
        # the integer floor/ceiling bounds against a Fraction comparison of
        # every candidate numerator, with fractional and negative ends
        hi = lo + width
        want = [F(a, b) for b in range(1, max_den + 1)
                for a in range(int(lo * b) - 1, int(hi * b) + 2)
                if F(a, b).denominator == b
                and (lo <= F(a, b) if include_lo else lo < F(a, b))
                and (F(a, b) <= hi if include_hi else F(a, b) < hi)]
        got = list(reduced_fractions_in(lo, hi, max_den,
                                        include_lo=include_lo, include_hi=include_hi))
        assert got == want

    @pytest.mark.parametrize("args, error, match", [
        ((0, 1, 0), ValueError, "max_den must be >= 1"),
        ((0, 1, 3.0), TypeError, "floating-point"),
        ((0.5, 1, 3), TypeError, "floating-point"),
    ])
    def test_arguments_checked_at_the_call(self, args, error, match):
        # the call raises before anything is iterated, not at the first next()
        with pytest.raises(error, match=match):
            reduced_fractions_in(*args)


class TestReducedRuns:
    """rational._reduced_runs, the one enumerator behind reduced_fractions_in,
    the sweep and the renderer, against a brute-force enumerator: runs in
    increasing order of b, each run increasing, and no run left empty."""

    @staticmethod
    def brute(lo, hi, max_den, include_lo, include_hi):
        runs = []
        for b in range(1, max_den + 1):
            run = [a for a in range(int(lo * b) - 2, int(hi * b) + 3)
                   if gcd(a, b) == 1
                   and (lo <= F(a, b) if include_lo else lo < F(a, b))
                   and (F(a, b) <= hi if include_hi else F(a, b) < hi)]
            if run:
                runs.append((b, run))
        return runs

    @pytest.mark.parametrize("include_lo", [True, False])
    @pytest.mark.parametrize("include_hi", [True, False])
    @given(st.fractions(min_value=-5, max_value=5, max_denominator=24),
           st.fractions(min_value=F(1, 60), max_value=3, max_denominator=60),
           st.integers(1, 16))
    # even b, where only odd numerators are visited, from a_min | 1: at b = 4
    # the least numerator is -7 (odd) or -6 (even), and with lo left out
    # floor(ln*b/ld) + 1 is 6 or -8 at b = 4 and -4 at b = 2
    @example(F(-7, 4), F(2), 8)
    @example(F(-3, 2), F(2), 8)
    @example(F(5, 4), F(1, 2), 4)
    @example(F(-9, 4), F(1, 2), 8)
    @example(F(-5, 2), F(2), 8)
    # [n, n + 1] at b = 2**k
    @example(F(3), F(1), 16)
    @example(F(-5), F(1), 32)
    @example(F(0), F(1), 64)
    def test_matches_brute_force(self, include_lo, include_hi, lo, width, max_den):
        hi = lo + width
        # brute lists b and each run in increasing order and keeps no empty run
        got = list(_reduced_runs(lo, hi, max_den, include_lo, include_hi))
        assert got == self.brute(lo, hi, max_den, include_lo, include_hi)

    @pytest.mark.parametrize("include_lo,include_hi,want", [
        (True, True, [(3, [1]), (5, [2])]),
        (False, True, [(5, [2])]),
        (True, False, [(3, [1])]),
        (False, False, []),
    ])
    def test_empty_runs_are_skipped(self, include_lo, include_hi, want):
        # [1/3, 2/5] holds no reduced fraction over 1, 2, 4 or 6
        assert list(_reduced_runs(F(1, 3), F(2, 5), 6, include_lo, include_hi)) == want
        # its mirror [-2/5, -1/3], with the ends' flags swapped
        neg = [(b, [-a for a in reversed(run)]) for b, run in want]
        assert list(_reduced_runs(F(-2, 5), F(-1, 3), 6, include_hi, include_lo)) == neg


class TestCompareReal:
    def test_exact(self):
        assert compare_real(F(1, 2), F(1, 2)) == EQ
        assert compare_real(F(2, 3), F(1, 2)) == GT
        assert compare_real(ExactReal(F(1, 3)), F(1, 2)) == LT

    def test_golden_against_convergents(self):
        phi = golden_ratio()
        # even-indexed convergents sit below, odd-indexed above
        assert compare_real(phi, F(1)) == GT
        assert compare_real(phi, F(2)) == LT
        assert compare_real(phi, F(3, 2)) == GT
        assert compare_real(phi, F(5, 3)) == LT
        assert compare_real(phi, F(8, 5)) == GT

    def test_sqrt2(self):
        r2 = sqrt_real(2)
        assert compare_real(r2, F(3, 2)) == LT
        assert compare_real(r2, F(7, 5)) == GT
        assert compare_real(r2, F(17, 12)) == LT

    @given(st.fractions(max_denominator=200), st.fractions(max_denominator=200))
    def test_matches_fraction_order(self, a, b):
        want = GT if a > b else LT if a < b else EQ
        assert compare_real(ExactReal(a), b) == want

    def test_pull_cap(self, monkeypatch):
        # a rational extremely close to the golden ratio forces deep bracket
        # refinement; an artificially tiny cap must trip the exhaustion error
        phi = bracket_twin(golden_ratio())
        close = F(832040, 514229)  # a far convergent
        assert compare_real(phi, close) in (LT, GT)
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 5)
        with pytest.raises(RefinementExhausted):
            compare_real(phi, close)
        # the periodic stream decides on its surd, with no pulls at all;
        # 832040/514229 is the convergent of index 28, below phi
        assert compare_real(golden_ratio(), close) == GT

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="floating-point"):
            as_real(0.5)
        with pytest.raises(TypeError, match="floating-point"):
            compare_real(golden_ratio(), 1.5)
        with pytest.raises(TypeError, match="floating-point"):
            sign_of_quadratic(0.5, 0, -1, golden_ratio())
        # a float alpha too, where a RealNumber, int or Fraction is accepted
        with pytest.raises(TypeError, match="floating-point"):
            sign_of_quadratic(1, 0, -2, 1.5)
        with pytest.raises(TypeError, match="floating-point"):
            floor_scaled(2.5, 1)
        assert floor_scaled(7, 1) == floor_scaled(F(7, 3), 3) == 7

    def test_finite_stream_rejected(self):
        class Finite:
            def __iter__(self):
                return iter((2, 2))

        bogus = CFStream(1, Finite())
        with pytest.raises(ValueError, match="finite expansions must be ExactReal"):
            compare_real(bogus, F(41, 29))


class Index:
    """An integer-like object that is not an int: it has only __index__."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestIntegerCoercion:
    """real._as_int returns an exact int as is, and every other argument
    still goes through the float test and operator.index; a stream's walk
    tests each partial once and coerces only what fails that test."""

    def test_bool_and_index_objects_accepted(self):
        assert real._as_int(True) == 1 and type(real._as_int(True)) is int
        assert real._as_int(Index(7)) == 7 and type(real._as_int(Index(7))) is int
        assert PeriodicCoefficients((Index(2),), (True,)).period == (2,)

    @pytest.mark.parametrize("value", [1.0, 1.5, -0.0])
    def test_float_still_rejected(self, value):
        with pytest.raises(TypeError, match="floating-point values are not accepted"):
            real._as_int(value)
        with pytest.raises(TypeError, match="floating-point values are not accepted"):
            CFStream(value, PeriodicCoefficients((1,)))

    @pytest.mark.parametrize("bad, index", [(0, 3), (-1, 3), (0, 1), (-1, 1)])
    def test_partial_below_one_rejected(self, bad, index):
        partials = (2,) * (index - 1) + (bad, 1)
        walk = CFStream(1, Plain(partials)).coefficients()
        assert list(islice(walk, index)) == [1, *partials[:index - 1]]
        with pytest.raises(ValueError, match=rf"^continued fraction coefficient {bad} "
                                             rf"at index {index} is < 1$"):
            next(walk)
        # a bool or an __index__ object is coerced and tested the same way
        walk = CFStream(1, Plain((Index(bad), 1))).coefficients()
        with pytest.raises(ValueError, match=f"coefficient {bad} at index 1 is < 1"):
            list(islice(walk, 3))
        assert list(islice(CFStream(1, Plain((True, Index(3), 4))).coefficients(), 4)) \
            == [1, 1, 3, 4]

    @pytest.mark.parametrize("bad", [1.0, 2.5, 0.0])
    def test_float_partial_rejected(self, bad):
        walk = CFStream(1, Plain((2, bad, 1))).coefficients()
        assert list(islice(walk, 2)) == [1, 2]
        with pytest.raises(TypeError, match="floating-point values are not accepted"):
            next(walk)


class TestStreams:
    def test_periodic_provider_restartable(self):
        p = PeriodicCoefficients((1, 2), initial=(5,))
        first = [b for b, _ in zip(iter(p), range(6))]
        second = [b for b, _ in zip(iter(p), range(6))]
        assert first == second == [5, 1, 2, 1, 2, 1]

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError, match="empty period"):
            PeriodicCoefficients(())

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PeriodicCoefficients((1, 0))

    def test_brackets_nest_and_shrink(self):
        phi = golden_ratio()
        widths = []
        last = None
        for i, (lo, hi) in enumerate(bracket_bounds(phi)):
            assert lo < hi
            if last is not None:
                assert last[0] <= lo and hi <= last[1]
            widths.append(hi - lo)
            last = (lo, hi)
            if i == 8:
                break
        assert widths == sorted(widths, reverse=True)

    def test_one_shot_partials_rejected(self):
        # every walk calls iter(partials); an iterator would resume where the
        # last walk stopped and give another value on every query
        def e_partials():
            k = 1
            while True:
                yield from (1, 2 * k, 1)
                k += 1

        with pytest.raises(TypeError, match="restartable"):
            CFStream(2, e_partials())
        with pytest.raises(TypeError, match="restartable"):
            CFStream(1, repeat(1))

    def test_engine_fixed_at_construction(self):
        # the same coefficients behind another wrapper change the walks only
        for make, h in ((golden_ratio, (1, -1, -1)),
                        (lambda: sqrt_real(7), (1, 0, -7)),
                        (lambda: CFStream(1, PeriodicCoefficients((1, 3), (2,))),
                         minimal_polynomial(1, (1, 3), (2,)))):
            stream, fresh = make(), make()
            stream.partials = Plain(stream.partials)
            assert stream.surd() == fresh.surd() is not None
            for q in (F(1), F(8, 5), F(21, 13), F(-7, 2), F(3)):
                assert compare_real(stream, q) == compare_real(fresh, q)
            assert [floor_scaled(stream, k) for k in range(1, 40)] == \
                [floor_scaled(fresh, k) for k in range(1, 40)]
            for coeffs in ((1, 0, -3), (3, -5, 1)):
                assert sign_of_quadratic(*coeffs, stream) == \
                    sign_of_quadratic(*coeffs, fresh)
            # h vanishes at the value, which only the surd engine decides
            assert sign_of_quadratic(*h, stream) == EQ

    def test_describe_labels(self):
        assert golden_ratio().describe() == "golden"
        assert sqrt_real(7).describe() == "sqrt:7"
        assert ExactReal(F(3, 5)).describe() == "3/5"
        assert ExactReal(7).describe() == "7"


def sqrt_period(stream: CFStream) -> tuple[int, ...]:
    """The period of a square root read off its coefficients: it is every
    coefficient after b0 up to and including the first 2*b0."""
    period = []
    for a in islice(stream.coefficients(), 1, None):
        period.append(a)
        if a == 2 * stream.b0:
            return tuple(period)


class TestSqrtReal:
    # frozen periods of the surd recurrence
    CASES = {
        2: (1, (2,)),
        3: (1, (1, 2)),
        5: (2, (4,)),
        7: (2, (1, 1, 1, 4)),
        13: (3, (1, 1, 1, 1, 6)),
        94: (9, (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)),
    }

    @pytest.mark.parametrize("n", sorted(CASES))
    def test_known_periods(self, n):
        b0, period = self.CASES[n]
        stream = sqrt_real(n)
        assert stream.b0 == b0
        assert sqrt_period(stream) == period
        # no initial block: the period repeats from the first partial on
        assert tuple(islice(stream.coefficients(), 1, 1 + 2 * len(period))) == period * 2

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 144, -3])
    def test_rejects_non_surds(self, n):
        with pytest.raises(ValueError, match="not a quadratic irrational"):
            sqrt_real(n)

    @pytest.mark.parametrize("n", [k for k in range(2, 80) if isqrt(k) ** 2 != k])
    def test_brackets_contain_sqrt(self, n):
        # lo^2 < n < hi^2 for every bracket: the stream really is sqrt(n)
        for i, (lo, hi) in enumerate(bracket_bounds(sqrt_real(n))):
            assert lo * lo < n < hi * hi
            if i == 6:
                break

    def test_period_palindrome_plus_double(self):
        # the classical shape: period = palindrome + (2*a0,)
        for n in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 19, 21, 22, 23, 29, 31, 94):
            stream = sqrt_real(n)
            period = sqrt_period(stream)
            assert period[-1] == 2 * stream.b0
            body = period[:-1]
            assert body == body[::-1]

    def test_preset_surd_matches_the_period(self):
        # the surd square-root partials give, after any b0, is the one their
        # period determines
        for n in range(2, 301):
            if isqrt(n) ** 2 != n:
                stream = sqrt_real(n)
                assert stream.surd() == (0, 1, n, 1)
                for b0 in {stream.b0, *range(-3, 4)}:
                    periodic = CFStream(b0, PeriodicCoefficients(sqrt_period(stream)))
                    assert CFStream(b0, stream.partials).surd() == periodic.surd()


class TestSignOfQuadratic:
    def test_rational_point(self):
        assert sign_of_quadratic(1, 0, -2, F(3, 2)) == GT   # 9/4 - 2 > 0
        assert sign_of_quadratic(1, 0, -2, F(7, 5)) == LT
        assert sign_of_quadratic(0, 0, 0, F(5, 7)) == EQ
        assert sign_of_quadratic(4, -4, 1, F(1, 2)) == EQ   # (2t-1)^2 at its root

    def test_stream_point(self):
        # t^2 - 2 changes sign exactly at sqrt(2)
        assert sign_of_quadratic(1, 0, -2, sqrt_real(3)) == GT
        assert sign_of_quadratic(1, 0, -2, golden_ratio()) == GT
        # phi^2 - phi - 1 = 0, so perturbed constants decide the sign
        assert sign_of_quadratic(1, -1, F(-9, 8), golden_ratio()) == LT
        assert sign_of_quadratic(1, -1, F(-7, 8), golden_ratio()) == GT

    def test_vertex_inside_bracket(self):
        # on the surd and on the brackets of the same coefficients
        for r2 in (sqrt_real(2), bracket_twin(sqrt_real(2))):
            # minimum of (t - 3/2)^2 + 1/100 is interior; sign must still resolve
            assert sign_of_quadratic(1, -3, F(9, 4) + F(1, 100), r2) == GT
            # (t - 7/5)^2 - 1/2500 has both roots inside the first bracket
            # (1, 3/2), positive at both ends yet negative at sqrt(2)
            assert sign_of_quadratic(1, F(-14, 5), F(49, 25) - F(1, 2500), r2) == LT

    def test_vanishing_quadratic_exhausts(self, monkeypatch):
        # brackets never decide a quadratic that vanishes at the stream value
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 50)
        with pytest.raises(RefinementExhausted):
            sign_of_quadratic(1, -1, -1, bracket_twin(golden_ratio()))

    def test_vanishing_quadratic_on_a_surd(self):
        # phi^2 - phi - 1 = 0 exactly, and the surd says so
        assert sign_of_quadratic(1, -1, -1, golden_ratio()) == EQ
        assert sign_of_quadratic(F(1, 3), 0, F(-2, 3), sqrt_real(2)) == EQ


class TestFloorScaled:
    def test_rational(self):
        assert floor_scaled(F(3, 5), 1) == 0
        assert floor_scaled(F(3, 5), 5) == 3
        assert floor_scaled(F(-7, 2), 1) == -4
        assert floor_scaled(F(-7, 2), 2) == -7

    def test_streams(self):
        phi = golden_ratio()
        # floor(k*phi) is the Beatty sequence 1, 3, 4, 6, 8, 9, 11, ...
        assert [floor_scaled(phi, k) for k in range(1, 8)] == [1, 3, 4, 6, 8, 9, 11]
        r2 = sqrt_real(2)
        assert [floor_scaled(r2, k) for k in range(1, 8)] == [1, 2, 4, 5, 7, 8, 9]

    @given(st.fractions(max_denominator=60), st.integers(1, 40))
    def test_matches_fraction_floor(self, q, k):
        import math
        assert floor_scaled(ExactReal(q), k) == math.floor(q * k)


def floor_by_signs(alpha, v1, u1, v2, u2):
    """floor((v1*alpha + u1)/(v2*alpha + u2)) for a positive denominator, by
    galloping and bisecting on one linear sign test per step: the ratio is
    >= f exactly when (v1 - f*v2)*alpha + (u1 - f*u2) is >= 0."""
    def at_least(f):
        return sign_of_quadratic(0, v1 - f * v2, u1 - f * u2, alpha) != LT

    lo, hi = -1, 1
    while not at_least(lo):
        lo *= 2
    while at_least(hi):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at_least(mid) else (lo, mid)
    return lo


@st.composite
def floor_alphas(draw):
    """A small rational, or a SURD_STREAMS entry on its surd or its bracket
    twin."""
    kind = draw(st.sampled_from(("rational", "surd", "brackets")))
    if kind == "rational":
        return ExactReal(draw(st.fractions(-4, 4, max_denominator=30)))
    stream = SURD_STREAMS[draw(st.sampled_from(sorted(SURD_STREAMS)))][0]()
    return stream if kind == "surd" else bracket_twin(stream)


class TestFloorRatio:
    """floor_ratio_exact's floor against a search by sign tests, on
    ExactReal, on the SURD_STREAMS and on their bracket twins."""

    SMALL = st.integers(-30, 30)

    @settings(deadline=None, max_examples=300)
    @given(floor_alphas(), SMALL, SMALL, SMALL, SMALL, st.data())
    def test_matches_a_search_by_signs(self, alpha, v1, u1, v2, u2, data):
        if data.draw(st.booleans(), label="near pole"):
            # a convergent's form, barely above 0 at alpha: a huge ratio,
            # and brackets that straddle the pole before they decide
            pairs = list(islice(alpha.convergent_pairs(), 16))
            a, b = pairs[data.draw(st.integers(0, len(pairs) - 1))]
            v2, u2 = b, -a
        side = sign_of_quadratic(0, v2, u2, alpha)
        assume(side != EQ)
        v2, u2 = side * v2, side * u2
        if data.draw(st.booleans(), label="exact"):
            # the ratio is the integer f: a form vanishing at a rational
            # p/q is a multiple of (q, -p), at an irrational only 0
            f, k = data.draw(st.integers(-50, 50)), data.draw(self.SMALL)
            p, q = (alpha.value.numerator, alpha.value.denominator) \
                if isinstance(alpha, ExactReal) else (0, 0)
            v1, u1 = f * v2 + k * q, f * u2 - k * p
            assert real.floor_ratio_exact(alpha, v1, u1, v2, u2) == (f, True)
        assert real.floor_ratio_exact(alpha, v1, u1, v2, u2)[0] == \
            floor_by_signs(alpha, v1, u1, v2, u2)

    @pytest.mark.parametrize("alpha, args, want", [
        (ExactReal(F(3, 5)), (10, 4, 5, -2), 10),  # (6 + 4)/(3 - 2), exactly
        (ExactReal(F(-7, 2)), (1, 0, 0, 1), -4),
        (golden_ratio(), (6, 3, 2, 1), 3),  # a constant map
        (bracket_twin(golden_ratio()), (-6, -3, 2, 1), -3),
        (sqrt_real(2), (-1, 0, 0, 1), -2),  # -sqrt(2): the root's floor, less 1
        (bracket_twin(sqrt_real(2)), (-1, 0, 0, 1), -2),
        # 1/(99*sqrt(2) - 140) = (99*sqrt(2) + 140)/2, just above 140
        (sqrt_real(2), (0, 1, 99, -140), 140),
        (bracket_twin(sqrt_real(2)), (0, 1, 99, -140), 140),
    ])
    def test_examples(self, alpha, args, want):
        assert real.floor_ratio_exact(alpha, *args)[0] == want

    @pytest.mark.parametrize("alpha, v2, u2", [
        *((alpha, v2, u2)
          for alpha in (ExactReal(F(3, 5)), golden_ratio(), bracket_twin(golden_ratio()))
          for v2, u2 in ((0, 0), (-1, 0), (0, -1), (1, -2))),
        (ExactReal(F(3, 5)), 5, -3),  # zero at alpha
    ])
    def test_denominator_must_be_positive(self, alpha, v2, u2):
        with pytest.raises(ValueError, match="denominator must be positive"):
            real.floor_ratio_exact(alpha, 1, 0, v2, u2)


def minimal_polynomial(b0, period, initial):
    """Integer (h2, h1, h0) vanishing at [b0; initial, (period)], built from
    the tail equation B*y^2 + (B' - A)*y - A' = 0 by the inverse Moebius map
    y = (C' - E'*t)/(E*t - C) of the initial block, without the surd."""
    def last_two(coeffs):
        num, num_prev, den, den_prev = 1, 0, 0, 1
        for b in coeffs:
            num, num_prev = b * num + num_prev, num
            den, den_prev = b * den + den_prev, den
        return (num_prev, den_prev), (num, den)

    (a1, b1), (a, b) = last_two(period)
    (c1, e1), (c, e) = last_two((b0, *initial))
    h2 = b * e1 * e1 - (b1 - a) * e1 * e - a1 * e * e
    h1 = -2 * b * c1 * e1 + (b1 - a) * (c1 * e + e1 * c) + 2 * a1 * e * c
    h0 = b * c1 * c1 - (b1 - a) * c1 * c - a1 * c * c
    return h2, h1, h0


def surd_above(surd, x: F) -> bool:
    """(P + S*sqrt(D))/Q > x, by integer squares only."""
    p, s, d, q = surd
    # S*m*sqrt(D) > Q*n - P*m for x = n/m
    t, rhs = s * x.denominator, q * x.numerator - p * x.denominator
    if t > 0:
        return rhs < 0 or t * t * d > rhs * rhs
    return rhs < 0 and t * t * d < rhs * rhs


def proportional(u, v) -> bool:
    """Whether the coefficient triples u and v are proportional."""
    return all(u[i] * v[j] == u[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2)))


COEFF = st.one_of(st.integers(1, 60), st.integers(1, 10**9))
PERIODIC = st.tuples(st.integers(-50, 50),
                     st.lists(COEFF, min_size=1, max_size=4),
                     st.lists(COEFF, max_size=4))


@st.composite
def streams(draw):
    """(stream, h): golden, sqrt:n, b0 on the partials of sqrt:n, a periodic
    cf: stream, or the bracket twin (no surd) of one of them, with the integer
    minimal polynomial h of its value; h and its multiples vanish there, so a
    twin never decides them."""
    kind = draw(st.sampled_from(("golden", "sqrt", "shifted", "cf")))
    if kind == "golden":
        stream, h = golden_ratio(), minimal_polynomial(1, (1,), ())
    elif kind in ("sqrt", "shifted"):
        n = draw(st.integers(2, 200).filter(lambda n: isqrt(n) ** 2 != n))
        stream, h = sqrt_real(n), (1, 0, -n)
        if kind == "shifted":
            # the value m + sqrt(n), a root of (t - m)^2 - n
            b0 = draw(st.integers(-3, 3))
            m = b0 - isqrt(n)
            stream, h = CFStream(b0, stream.partials), (1, -2 * m, m * m - n)
    else:
        b0, period, initial = draw(st.sampled_from(
            [(0, (2, 5, 1), ()), (1, (1, 3), (2,)), (-3, (1,), ())]))
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        h = minimal_polynomial(b0, period, initial)
    if draw(st.booleans()):
        stream = bracket_twin(stream)
    return stream, h


class TestSurd:
    """The surd engine of periodic streams against the bracket engine on the
    same coefficients (an unpruned cross-check: brackets never use the surd)."""

    def test_known_surds(self):
        assert golden_ratio().surd() == (1, 1, 5, 2)
        assert sqrt_real(2).surd() == (0, 1, 2, 1)
        assert sqrt_real(94).surd() == (0, 1, 94, 1)
        assert bracket_twin(golden_ratio()).surd() is None

    def test_floors_of_small_surds(self):
        # small coefficients give small Q, where a floor off by one for a
        # negative S (e.g. 2 - sqrt(2) = [0; 1, 1, (2)]) cannot hide
        negative = 0
        for b0 in (-2, 0, 1):
            for initial in ((), (1,), (2,), (1, 1), (3, 1)):
                for period in ((1,), (2,), (1, 2), (3, 1, 1)):
                    stream = CFStream(b0, PeriodicCoefficients(period, initial))
                    twin = bracket_twin(stream)
                    negative += stream.surd()[1] < 0
                    assert [floor_scaled(stream, k) for k in range(1, 60)] == \
                        [floor_scaled(twin, k) for k in range(1, 60)]
        assert negative > 0

    @given(PERIODIC)
    def test_surd_is_the_stream_value(self, spec):
        b0, period, initial = spec
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        p, s, d, q = surd = stream.surd()
        assert s in (1, -1) and q > 0
        assert isqrt(d) ** 2 != d
        for i, (lo, hi) in enumerate(bracket_bounds(stream)):
            assert surd_above(surd, lo) and not surd_above(surd, hi)
            if i == 20:
                break
        # and it is a root of the minimal polynomial found without it
        assert sign_of_quadratic(*minimal_polynomial(b0, period, initial), stream) == EQ

    @settings(deadline=None)
    @given(PERIODIC, st.data())
    def test_engines_agree(self, spec, data):
        b0, period, initial = spec
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        twin = bracket_twin(stream)
        # rationals at, just beside and away from a convergent
        n = data.draw(st.integers(0, 12))
        num, den = list(islice(twin.convergent_pairs(), n + 1))[-1]
        q = F(num, den) + data.draw(st.sampled_from(
            [F(0), F(1, 10**12), F(-1, 10**12), F(1, 3), F(-7, 5)]))
        assert compare_real(stream, q) == compare_real(twin, q)
        k = data.draw(st.integers(1, 10**4))
        assert floor_scaled(stream, k) == floor_scaled(twin, k)
        coeffs = tuple(data.draw(st.fractions(max_denominator=100))
                       * data.draw(st.sampled_from([1, 10**6])) for _ in range(3))
        h = minimal_polynomial(b0, period, initial)
        if any(coeffs) and not proportional(coeffs, h):
            assert sign_of_quadratic(*coeffs, stream) == sign_of_quadratic(*coeffs, twin)
        # the linear sign test of (iii) at a rival c/d of a/b, where
        # e = +-1 and d - e*b may be zero or negative
        d, b = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        c = floor_scaled(twin, d) + data.draw(st.integers(-1, 2))
        a = floor_scaled(twin, b) + data.draw(st.integers(-1, 2))
        e = compare_real(twin, F(c, d)) * compare_real(twin, F(a, b))
        assert sign_of_quadratic(0, d - e * b, e * a - c, stream) == \
            sign_of_quadratic(0, d - e * b, e * a - c, twin)

    @given(PERIODIC, st.fractions().filter(bool))
    def test_minimal_polynomial_multiples_vanish(self, spec, scale):
        b0, period, initial = spec
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        h2, h1, h0 = minimal_polynomial(b0, period, initial)
        assert sign_of_quadratic(scale * h2, scale * h1, scale * h0, stream) == EQ

    @settings(deadline=None)
    @given(streams(), st.tuples(*[st.integers(-10**6, 10**6)] * 3), st.integers(1, 10**6))
    def test_integer_path_matches_lcm_path(self, spec, coeffs, k):
        # int coefficients are used as they are; the same quadratic over k
        # as Fractions is cleared by the lcm, and the sign must not move
        stream, h = spec
        assume(stream.surd() is not None or not proportional(coeffs, h))
        c2, c1, c0 = coeffs
        assert sign_of_quadratic(c2, c1, c0, stream) == \
            sign_of_quadratic(F(c2, k), F(c1, k), F(c0, k), stream)


class Counting:
    """A restartable coefficient iterable that counts its restarts and the
    coefficients pulled through it."""

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self.restarts = self.pulls = 0

    def __iter__(self):
        self.restarts += 1
        for c in self.coeffs:
            self.pulls += 1
            yield c


def answer(query, alpha):
    kind, arg = query
    if kind == "floor":
        return floor_scaled(alpha, arg)
    if kind == "compare":
        return compare_real(alpha, arg)
    return sign_of_quadratic(*arg, alpha)


class TestConvergentTable:
    """A stream without a surd keeps one table of convergent pairs for all
    its queries, keyed on its partials object and capped like a fresh walk."""

    GOLDEN_QUERIES = (
        [("floor", k) for k in (1, 7, 55, 600, 10**4, 3)]
        + [("compare", q) for q in (F(832040, 514229), F(1), F(8, 5), F(-7, 2))]
        + [("quad", c) for c in ((1, 0, -3), (3, -5, 1), (1, -1, F(-9, 8)))]
    )

    def test_each_coefficient_pulled_once(self):
        partials = Counting(PeriodicCoefficients((1,)))
        stream = CFStream(1, partials)
        want = [answer(q, golden_ratio()) for q in self.GOLDEN_QUERIES]
        assert [answer(q, stream) for q in self.GOLDEN_QUERIES] == want
        # one walk in all, as deep as the deepest query (832040/514229 is
        # the convergent of index 28)
        assert partials.restarts == 1 and 28 <= partials.pulls < 40
        pulls = partials.pulls
        assert [answer(q, stream) for q in reversed(self.GOLDEN_QUERIES)] == want[::-1]
        assert (partials.restarts, partials.pulls) == (1, pulls)

    def test_replaced_partials_rebuild_the_table(self):
        old = Counting(PeriodicCoefficients((1,)))
        stream = CFStream(1, old)
        assert compare_real(stream, F(3, 2)) == GT  # golden
        pulled = old.pulls
        new = stream.partials = Counting(Plain(sqrt_real(2).partials))
        assert compare_real(stream, F(3, 2)) == LT  # 1 + [0; 2, 2, ...] = sqrt(2)
        assert floor_scaled(stream, 1000) == 1414
        assert new.restarts == 1 and new.pulls > 0
        assert (old.restarts, old.pulls) == (1, pulled)

    def test_exhaustion_bounds_the_table(self, monkeypatch):
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 5)
        partials = Counting(PeriodicCoefficients((1,)))
        stream = CFStream(1, partials)
        for _ in range(2):
            with pytest.raises(RefinementExhausted, match="after 5 coefficient pulls"):
                compare_real(stream, F(832040, 514229))
            assert len(stream._pairs) <= real.DEFAULT_MAX_PULLS + 1
            assert partials.pulls <= real.DEFAULT_MAX_PULLS

    BAD_WALKS = [
        ((1, 1, 1, 0, 1, 1), ValueError, "coefficient 0 at index 4 is < 1"),
        ((1, 1, 1, 1.5, 1), TypeError, "floating-point"),
        ((1, 1, 1, F(3, 2), 1), TypeError, "cannot be interpreted as an integer"),
        ((1, 1), ValueError, "coefficient stream ended"),
    ]

    @pytest.mark.parametrize("coeffs, error, match", BAD_WALKS)
    def test_errors_repeat_on_every_query(self, coeffs, error, match):
        # the first three brackets are golden's, and 832040/514229 lies inside
        # every golden bracket, so each query reaches the bad coefficient
        stream = CFStream(1, Plain(coeffs))
        for _ in range(3):
            with pytest.raises(error, match=match):
                compare_real(stream, F(832040, 514229))
        # a query decided before the bad coefficient still is
        assert compare_real(stream, F(1)) == GT

    @pytest.mark.parametrize("coeffs, error, match", BAD_WALKS)
    def test_failed_walk_resets_the_mark(self, coeffs, error, match):
        stream = CFStream(1, Plain(coeffs))
        assert compare_real(stream, F(1)) == GT  # an end of bracket 1
        assert stream._mark == 2
        with pytest.raises(error, match=match):
            compare_real(stream, F(832040, 514229))
        assert compare_real(stream, F(-7, 2)) == GT
        assert stream._mark == 1

    def test_queries_start_at_the_mark(self):
        partials = Counting(PeriodicCoefficients((1,)))
        stream = CFStream(1, partials)
        assert compare_real(stream, F(-7, 2)) == GT
        assert (stream._mark, partials.pulls) == (1, 1)
        # 832040/514229 is the convergent of index 28, an end of brackets
        # 28 and 29, so bracket 30 decides it
        assert compare_real(stream, F(832040, 514229)) == GT
        assert (stream._mark, partials.pulls) == (30, 30)
        # a question bracket 1 decides is decided at the mark, with no pull
        for query in (("floor", 1), ("compare", F(-7, 2)), ("quad", (1, 0, -3))):
            assert answer(query, stream) == answer(query, golden_ratio())
        assert (stream._mark, partials.pulls) == (30, 30)
        # the walk itself still starts at bracket 1
        assert next(stream.brackets()) == ((1, 1), (2, 1))

    def test_exhausted_query_leaves_the_mark(self, monkeypatch):
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 5)
        partials = Counting(PeriodicCoefficients((1,)))
        stream = CFStream(1, partials)
        assert compare_real(stream, F(3, 2)) == GT  # 3/2 is C_2: bracket 4
        assert stream._mark == 4
        with pytest.raises(RefinementExhausted, match="after 5 coefficient pulls"):
            compare_real(stream, F(832040, 514229))
        assert stream._mark == 4 and partials.pulls == 5
        assert compare_real(stream, F(-7, 2)) == GT
        assert stream._mark == 4 and partials.pulls == 5

    def test_cap_holds_at_a_high_mark(self, monkeypatch):
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 40)
        stream = bracket_twin(golden_ratio())
        assert compare_real(stream, F(832040, 514229)) == GT
        assert stream._mark == 30
        # x^2 - x - 1 vanishes at golden: no bracket decides it
        with pytest.raises(RefinementExhausted, match="after 40 coefficient pulls"):
            sign_of_quadratic(1, -1, -1, stream)
        assert stream._mark == 30 and len(stream._pairs) == 41

    def test_replaced_partials_reset_the_mark(self):
        stream = CFStream(1, Counting(PeriodicCoefficients((1,))))
        assert compare_real(stream, F(832040, 514229)) == GT
        assert stream._mark == 30
        stream.partials = Plain(sqrt_real(2).partials)
        # sqrt(2): 3/2 is C_1, an end of brackets 1 and 2
        assert compare_real(stream, F(3, 2)) == LT
        assert stream._mark == 3

    @staticmethod
    def order_independence(spec, data, deepen):
        # one memoised stream answers any mix of queries in any order as a
        # fresh stream per query does, and as the surd does
        b0, period, initial = spec
        stream = CFStream(b0, PeriodicCoefficients(period, initial))
        h = minimal_polynomial(b0, period, initial)
        convergents = list(islice(bracket_twin(stream).convergent_pairs(), 13))
        near = st.builds(lambda i, dq: F(*convergents[i]) + dq,
                         st.integers(0, 12),
                         st.sampled_from([F(0), F(1, 10**12), F(-1, 10**12), F(1, 3)]))
        quad = st.tuples(*[st.fractions(max_denominator=100)] * 3).filter(
            lambda c: any(c) and not proportional(c, h))
        queries = data.draw(st.lists(st.one_of(
            st.tuples(st.just("floor"), st.integers(1, 10**4)),
            st.tuples(st.just("compare"), near),
            st.tuples(st.just("quad"), quad)), min_size=1, max_size=12))
        memo = bracket_twin(stream)
        if deepen:
            # a convergent C_k of denominator above 10^30 is an end of
            # brackets k and k + 1, so bracket k + 2 decides it
            k, deep = next((k, pair) for k, pair in enumerate(memo.convergent_pairs())
                           if pair[1] > 10**30)
            assert compare_real(memo, F(*deep)) == compare_real(stream, F(*deep))
            assert memo._mark == k + 2
        order = data.draw(st.permutations(range(len(queries))))
        got = {i: answer(queries[i], memo) for i in order}
        for i, query in enumerate(queries):
            assert got[i] == answer(query, bracket_twin(stream)) == answer(query, stream)

    @settings(deadline=None)
    @given(PERIODIC, st.data())
    def test_order_independence(self, spec, data):
        self.order_independence(spec, data, deepen=False)

    @settings(deadline=None)
    @given(PERIODIC, st.data())
    def test_order_independence_past_a_deep_mark(self, spec, data):
        self.order_independence(spec, data, deepen=True)
