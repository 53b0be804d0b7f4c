"""Best-approximation oracle, nearby predicate, witness search, equivalence
checker, and sweep reports."""

from __future__ import annotations

import functools
import json
import random
import tracemalloc
from fractions import Fraction as F
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fordcircles import (
    CFStream,
    QuadraticRadius,
    TheoremUReport,
    are_tangent,
    cf_chain,
    cf_of_rational,
    convergents,
    ford_circle,
    golden_ratio,
    is_best_approx_2nd,
    is_nearby,
    penultimate_pair,
    reduced_fractions_in,
    sqrt_real,
    statement_v_witness,
    tangent_horocircle_radius,
    theorem_u_check,
    verify_sweep,
)
from fordcircles import _kernel, real, verify
from fordcircles.cli import main, parse_real_spec
from fordcircles.real import (GT, LT, ExactReal, RealNumber, as_real, compare_real,
                              sign_of_quadratic)
from test_exact_core import SURD_STREAMS, Counting, Plain, bracket_twin
from test_kernel import CHAIN_CAPS, _Refused, _refuse


def per_pair_sweep(den_max_x, den_max_alpha, window):
    """The per-pair engine verify_sweep is held against: every pair of the
    same grid visited, (i) and (ii) from the convergents, (iii)-(v) from the
    per-pair kernels."""
    lo, hi = window
    xs = [x for x in reduced_fractions_in(lo - 1, hi + 1, den_max_x,
                                          include_lo=False, include_hi=False)
          if x.denominator > 1]
    alphas = list(reduced_fractions_in(lo, hi, den_max_alpha, include_hi=False))
    inconsistencies = []
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        cf = cf_of_rational(alpha)
        convs = {(c.num, c.den) for c in convergents(cf, cf.length)}
        for x in xs:
            a, b = x.numerator, x.denominator
            stmts = ((a, b) in convs, (a, b) in convs,
                     _kernel.best_flag(a, b, p, q), _kernel.near_flag(a, b, p, q),
                     _kernel.witness_flag(a, b, p, q))
            if any(stmts) and not all(stmts):
                names = ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v")
                inconsistencies.append({"x": f"{a}/{b}", "alpha": f"{p}/{q}",
                                        **dict(zip(names, stmts))})
    return {"totalChecked": len(alphas) * len(xs),
            "inconsistencies": inconsistencies}


class TestCfChain:
    def test_rational_chain(self):
        chain = cf_chain(F(3, 5), 4)
        assert [c.base for c in chain] == [F(0), F(1), F(1, 2), F(3, 5)]
        assert [c.radius for c in chain] == [F(1, 2), F(1, 2), F(1, 8), F(1, 50)]

    def test_golden_chain(self):
        chain = cf_chain(golden_ratio(), 3)
        assert [c.base for c in chain] == [F(1), F(2), F(3, 2)]

    def test_integer_chain(self):
        chain = cf_chain(F(7), 1)
        assert len(chain) == 1
        assert chain[0] == ford_circle(F(7))

    def test_exhaustion(self):
        with pytest.raises(ValueError, match="expansion exhausted"):
            cf_chain(F(3, 5), 5)

    @pytest.mark.parametrize("alpha,count", [
        (F(3, 5), 4), (F(355, 113), 3), (F(-7, 2), 2), (F(8, 5), 4),
    ])
    def test_consecutive_tangency_and_radii(self, alpha, count):
        chain = cf_chain(alpha, count)
        for index, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1):
            assert are_tangent(prev.base, cur.base)
            assert cur.radius <= prev.radius
            if index >= 2:
                assert cur.radius < prev.radius
        convs = convergents(cf_of_rational(alpha), count)
        assert [c.base for c in chain] == [conv.value for conv in convs]

    def test_stream_chain_tangency(self):
        chain = cf_chain(sqrt_real(2), 8)
        for prev, cur in zip(chain, chain[1:]):
            assert are_tangent(prev.base, cur.base)


class TestChainDescent:
    """Statement (ii)'s mediant descent of the Ford packing, held against
    statement (i)'s convergent walk, which it never calls."""

    CAPS = CHAIN_CAPS
    STREAMS = ("golden", "sqrt:2", "sqrt:94", "sqrt:991", "cf:-3;40,1,(5,1,7)")

    @staticmethod
    def streams():
        yield from map(parse_real_spec, TestChainDescent.STREAMS)
        yield bracket_twin(golden_ratio())
        yield bracket_twin(sqrt_real(7))
        # [10^6; (2*10^6)]: runs far longer than any cap below
        yield sqrt_real(10**12 + 1)
        yield bracket_twin(sqrt_real(10**12 + 1))

    def test_rationals_match_the_convergents(self):
        for alpha in reduced_fractions_in(F(-3), F(3), 40, include_hi=False):
            real = ExactReal(alpha)
            for cap in self.CAPS:
                assert verify._chain_upto(real, cap) == \
                    verify._convergents_upto(real, cap), (alpha, cap)

    def test_streams_match_the_convergents(self):
        for alpha in self.streams():
            for cap in (1, 2, 3, 5, 41, 100, 10**4, 10**6):
                assert verify._chain_upto(alpha, cap) == \
                    verify._convergents_upto(alpha, cap), (alpha, cap)

    def test_consecutive_bases_are_tangent(self):
        alphas = [*self.streams(), F(355, 113), F(-7, 2), F(3, 5), F(7, 2)]
        for alpha in alphas:
            bases = sorted(verify._chain_upto(as_real(alpha), 10**4),
                           key=lambda pair: pair[::-1])
            for (a, b), (c, d) in zip(bases, bases[1:]):
                assert are_tangent(F(a, b), F(c, d)), (alpha, (a, b), (c, d))

    #: real's deciding functions, each counted where verify binds it
    DECIDERS = ("sign_of_quadratic", "floor_scaled", "floor_ratio_exact")

    @classmethod
    def count_decisions(cls, monkeypatch) -> list:
        calls = []
        for name in cls.DECIDERS:
            if hasattr(verify, name):
                def counted(*args, call=getattr(verify, name)):
                    calls.append(args)
                    return call(*args)

                monkeypatch.setattr(verify, name, counted)
        return calls

    @staticmethod
    def floors_expected(x, alpha) -> int:
        """One exact floor for the integer part and one per run up to the
        cap b: a run per convergent after the first, and one more whose M_f
        passes the cap unless the chain ended at alpha first."""
        convs = verify._convergents_upto(alpha, x.denominator)
        ended = isinstance(alpha, ExactReal) and \
            (alpha.value.numerator, alpha.value.denominator) in convs
        return len(convs) + (not ended)

    @pytest.mark.parametrize("x,alpha,member,most", [
        (F(1, 10**4), F(1, 10**4), True, 10**4 + 2),  # [0;10000]: 2 floors
        (F(1, 10**8), F(0), False, 1),  # an integer alpha: its floor is exact
    ])
    def test_sign_tests_are_bounded(self, monkeypatch, x, alpha, member, most):
        # the bound is the unit descent's; the count is the floors', exactly
        calls = self.count_decisions(monkeypatch)
        assert theorem_u_check(x, alpha).stmt_ii is member
        assert 1 <= len(calls) <= most
        assert len(calls) == self.floors_expected(x, as_real(alpha))

    @pytest.mark.parametrize("x,alpha,member,most", [
        # [0;1000000]: the floor of alpha, then one run, whose exact floor
        # ends the chain: 2 floors
        (F(1, 10**6), F(1, 10**6), True, 4),
        # [10^6; 2*10^6, ...]: the first run's M_f leaves the cap 10^6: 2
        (F(1, 10**6), sqrt_real(10**12 + 1), False, 4),
        (F(1, 10**6), bracket_twin(sqrt_real(10**12 + 1)), False, 4),
        # [0; 3, 10^9]: a run to 1/3, then the run of 10^9 mediants to
        # alpha: 3 floors
        (F(10**9, 3 * 10**9 + 1), F(10**9, 3 * 10**9 + 1), True, 7),
        # golden: every run is one mediant, so 19 runs to 6765/4181, one
        # past it and the integer part: 20 floors
        (F(6765, 4181), golden_ratio(), True, 20),
    ])
    def test_calls_per_run_are_bounded(self, monkeypatch, x, alpha, member, most):
        # a run costs O(1) calls however long it is: one exact floor
        calls = self.count_decisions(monkeypatch)
        assert theorem_u_check(x, alpha).stmt_ii is member
        assert 1 <= len(calls) <= most
        assert len(calls) == self.floors_expected(x, as_real(alpha))

    def test_chain_makes_no_sign_test(self, monkeypatch):
        # (ii) decides every turn by its floors' exactness alone
        def refused(*args):
            raise AssertionError("statement (ii) made a sign test")

        monkeypatch.setattr(real, "sign_of_quadratic", refused)
        for alpha in [*self.streams(), *map(ExactReal, (F(355, 113), F(-7, 2), F(3)))]:
            verify._chain_upto(alpha, 10**6)

    @settings(deadline=None, max_examples=300)
    @given(st.fractions(-10**6, 10**6, max_denominator=10**12),
           st.one_of(st.integers(1, 50), st.integers(1, 10**13)), st.data())
    def test_rationals_up_to_10_to_12(self, alpha, cap, data):
        q = alpha.denominator
        cap = data.draw(st.sampled_from((cap, max(1, q - 1), q, q + 1)), label="cap")
        real_alpha = ExactReal(alpha)
        assert verify._chain_upto(real_alpha, cap) == \
            verify._convergents_upto(real_alpha, cap)

    @staticmethod
    def skip_convergent_3(monkeypatch):
        walk = RealNumber.convergent_pairs

        def skipping(self):
            return (pair for n, pair in enumerate(walk(self)) if n != 3)

        monkeypatch.setattr(RealNumber, "convergent_pairs", skipping)

    def test_check_does_not_follow_the_convergents(self, monkeypatch):
        # sqrt(2): 1/1, 3/2, 7/5, 17/12, ...; (i) loses 17/12, (ii) keeps it
        self.skip_convergent_3(monkeypatch)
        report = theorem_u_check(F(17, 12), sqrt_real(2))
        assert (report.stmt_i, report.stmt_ii) == (False, True)

    def test_sweep_does_not_follow_the_convergents(self, monkeypatch):
        # the sweep's (i) is _kernel.conv_set: it loses the fourth convergent
        # (denominators rise strictly from the second one on, so the order
        # by denominator is the walk's there), and (ii)-(v) keep it
        conv_set = _kernel.conv_set

        def skipping(p, q, max_den):
            walk = sorted(conv_set(p, q, max_den), key=lambda pair: pair[1])
            return set(walk[:3] + walk[4:])

        monkeypatch.setattr(_kernel, "conv_set", skipping)
        found = verify_sweep(8, 8, (F(0), F(1)))["inconsistencies"]
        assert found
        for entry in found:
            assert entry["stmt_i"] is False, entry
            assert entry["stmt_ii"] and entry["stmt_iii"] and entry["stmt_iv"] \
                and entry["stmt_v"], entry


class TestBestApprox:
    def test_examples(self):
        assert is_best_approx_2nd(F(1, 2), F(3, 5)) is True
        assert is_best_approx_2nd(F(0), F(3, 5)) is False
        assert is_best_approx_2nd(F(1, 3), F(3, 5)) is False

    def test_tie_is_a_violation(self):
        # |2*(1/3) - 1| = 1/3 = |1*(1/3) - 0|: the tie with 0/1 disqualifies 1/2
        assert is_best_approx_2nd(F(1, 2), F(1, 3)) is False

    def test_self_approximation(self):
        assert is_best_approx_2nd(F(3, 5), F(3, 5)) is True
        assert is_best_approx_2nd(F(7), F(7)) is True

    def test_stream_alpha(self):
        phi = golden_ratio()
        assert is_best_approx_2nd(F(3, 2), phi) is True
        assert is_best_approx_2nd(F(8, 5), phi) is True
        assert is_best_approx_2nd(F(7, 5), phi) is False
        assert is_best_approx_2nd(F(17, 12), sqrt_real(2)) is True
        assert is_best_approx_2nd(F(16, 11), sqrt_real(2)) is False

    def test_exhaustive_matches_pruned(self):
        alphas = list(reduced_fractions_in(F(0), F(1), 8, include_hi=False))
        xs = list(reduced_fractions_in(F(-1, 2), F(3, 2), 8))
        for alpha in alphas:
            for x in xs:
                assert is_best_approx_2nd(x, alpha) == \
                    reference.best_approx(x, alpha), (x, alpha)


class TestNearby:
    def test_examples(self):
        assert is_nearby(F(1, 2), F(3, 5)) is True
        # the admissible candidate 0/1 ties the radius at x, so not nearby
        assert is_nearby(F(1, 2), F(1, 3)) is False
        assert is_nearby(F(3, 5), F(3, 5)) is True
        assert is_nearby(F(7), F(7)) is True

    def test_stream_alpha(self):
        phi = golden_ratio()
        assert is_nearby(F(3, 2), phi) is True
        assert is_nearby(F(7, 5), phi) is False
        assert is_nearby(F(17, 12), sqrt_real(2)) is True

    def test_exhaustive_matches_pruned(self):
        alphas = list(reduced_fractions_in(F(0), F(1), 7, include_hi=False))
        xs = list(reduced_fractions_in(F(-1, 2), F(3, 2), 7))
        for alpha in alphas:
            for x in xs:
                assert is_nearby(x, alpha) == reference.nearby(x, alpha), (x, alpha)

    def test_agrees_with_best_approx(self):
        # the independent routes agree pointwise
        alphas = list(reduced_fractions_in(F(0), F(1), 10, include_hi=False))
        xs = list(reduced_fractions_in(F(-1), F(2), 10,
                                       include_lo=False, include_hi=False))
        for alpha in alphas:
            for x in xs:
                assert is_best_approx_2nd(x, alpha) == is_nearby(x, alpha)


class EPartials:
    """The partial quotients 1, 2, 1, 1, 4, 1, ... of e = [2; 1, 2, 1, ...]."""

    def __iter__(self):
        k = 1
        while True:
            yield from (1, 2 * k, 1)
            k += 1


class SeededPartials:
    """Partial quotients drawn afresh from random.Random(seed) on every walk:
    restartable, not eventually periodic, and with large ones among them."""

    def __init__(self, seed: int):
        self.seed = seed

    def __iter__(self):
        rng = random.Random(self.seed)
        while True:
            yield rng.choice((1, 1, 2, 3, 7, 200, 5000))


#: Every SURD_STREAMS entry on both engines, plus two streams without a surd.
PROXY_STREAMS = [f"{name}@{engine}" for name in SURD_STREAMS
                 for engine in ("surd", "brackets")] + ["e", "seeded"]


def make_stream(key: str) -> CFStream:
    if key == "e":
        return CFStream(2, EPartials())
    if key == "seeded":
        return CFStream(-1, SeededPartials(26))
    name, engine = key.split("@")
    stream = SURD_STREAMS[name][0]()
    return stream if engine == "surd" else bracket_twin(stream)


class TestStreamReference:
    """(iii) and (iv) on streams against the unpruned surd references, on the
    surd engine and on the bracket engine of the same coefficients."""

    @pytest.mark.parametrize("name", SURD_STREAMS)
    def test_surd_is_the_stream_value(self, name):
        # even-indexed convergents lie below the value, odd-indexed above
        make, surd = SURD_STREAMS[name]
        for n, (num, den) in enumerate(islice(make().convergent_pairs(), 12)):
            assert reference._sign_linear(den, num, surd) == (-1) ** n, (name, n)

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    @pytest.mark.parametrize("name", SURD_STREAMS)
    def test_flags_match_reference(self, name, engine):
        make, surd = SURD_STREAMS[name]
        alpha = make() if engine == "surd" else bracket_twin(make())
        b0 = alpha.b0
        held = 0
        for x in reduced_fractions_in(F(b0 - 1), F(b0 + 2), 40):
            best = reference.best_approx_surd(x, surd)
            assert is_best_approx_2nd(x, alpha) == best, (name, x)
            assert is_nearby(x, alpha) == reference.nearby_surd(x, surd), (name, x)
            held += best
        assert held >= 4

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    @pytest.mark.parametrize("name", SURD_STREAMS)
    def test_record_sets_at_the_proxy(self, name, engine):
        # by the proxy lemma the rational sets at _farey_proxy(alpha, 2*X)
        # are alpha's (iii) and (iv) records up to X: every b <= X has
        # 2*b <= 2*X, so each comparison has one sign at alpha and the proxy
        make, surd = SURD_STREAMS[name]
        alpha = make() if engine == "surd" else bracket_twin(make())
        b0 = alpha.b0
        for max_den in (1, 2, 3, 5, 8, 13, 20):
            p, q = verify._farey_proxy(alpha, 2 * max_den)
            best = _kernel.best_set(p, q, max_den)
            near = _kernel.near_set(p, q, max_den)
            for x in reduced_fractions_in(F(b0 - 1), F(b0 + 2), max_den):
                pair = (x.numerator, x.denominator)
                assert (pair in best) == reference.best_approx_surd(x, surd), \
                    (name, max_den, x)
                assert (pair in near) == reference.nearby_surd(x, surd), (name, max_den, x)
            # every record lies in that window, so none escaped the comparison
            assert {b for _, b in best | near} <= set(range(1, max_den + 1))
            assert all(b0 - 1 <= F(a, b) <= b0 + 2 for a, b in best | near), (name, max_den)

    @pytest.mark.parametrize("key", PROXY_STREAMS)
    def test_farey_proxy(self, key):
        # the proxy lemma: every form v*t - u with 1 <= v <= n has one
        # nonzero sign at alpha and at p/q.  At each v, u <= floor(v*p/q)
        # gives GT at p/q and u > it LT, and compare_real is monotone in u,
        # so alpha's signs at m/v and (m + 1)/v decide every u/v at that v
        alpha = make_stream(key)
        for n in (1, 2, 3, 10, 57, 200):
            p, q = verify._farey_proxy(alpha, n)
            assert q > n, (key, n)
            for v in range(1, n + 1):
                m, r = divmod(v * p, q)
                assert r != 0, (key, n, v)
                assert compare_real(alpha, F(m, v)) == GT, (key, n, v)
                assert compare_real(alpha, F(m + 1, v)) == LT, (key, n, v)

    def test_rational_is_its_own_proxy(self, monkeypatch):
        # no walk: a rational alpha is the kernels' own argument
        monkeypatch.setattr(ExactReal, "coefficients", _refuse)
        assert verify._farey_proxy(ExactReal(F(13, 8)), 10**6) == (13, 8)
        assert is_best_approx_2nd(F(5, 3), F(13, 8)) is True
        assert is_nearby(F(3, 2), F(13, 8)) is True

    def test_ended_stream_is_rejected(self):
        # [1; 2, 2] = 7/5 passed as a stream ends before any q > 2*b
        bogus = CFStream(1, Plain((2, 2)))
        for flag in (is_best_approx_2nd, is_nearby):
            with pytest.raises(ValueError, match="finite expansions must be ExactReal"):
                flag(F(7, 5), bogus)

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    @pytest.mark.parametrize("name", SURD_STREAMS)
    def test_each_statement_without_the_others_search(self, monkeypatch, name, engine):
        # (iii) and (iv) on a stream share only the proxy: each still matches
        # its unpruned surd reference with the other's record generator and
        # search made to raise
        make, surd = SURD_STREAMS[name]
        alpha = make() if engine == "surd" else bracket_twin(make())
        xs = list(reduced_fractions_in(F(alpha.b0 - 1), F(alpha.b0 + 2), 20))
        pairs = [pair for pair in islice(alpha.convergent_pairs(), 8) if pair[1] <= 20]
        a, b = pairs[-1]  # b >= 2, so each flag runs its own search
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "_first_hit", _refuse)
            patch.setattr(_kernel, "_best_hits", _refuse)
            with pytest.raises(_Refused):
                is_best_approx_2nd(F(a, b), alpha)
            for x in xs:
                assert is_nearby(x, alpha) == reference.nearby_surd(x, surd), (name, x)
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "_near_hits", _refuse)
            with pytest.raises(_Refused):
                is_nearby(F(a, b), alpha)
            for x in xs:
                assert is_best_approx_2nd(x, alpha) == \
                    reference.best_approx_surd(x, surd), (name, x)

    @staticmethod
    def stream_cases(statement):
        """2 x 3,240 cases (x, alpha, verdict): golden, sqrt:2, sqrt:94 and
        cf:1;2,(1,3) on the surd engine and on the bracket engine, with x of
        denominator <= 29 in [b0 - 1, b0 + 2)."""
        cases = []
        for name in ("golden", "sqrt:2", "sqrt:94", "cf:1;2,(1,3)"):
            make, _ = SURD_STREAMS[name]
            for alpha in (make(), bracket_twin(make())):
                b0 = alpha.b0
                for x in reduced_fractions_in(F(b0 - 1), F(b0 + 2), 29,
                                              include_hi=False):
                    cases.append((x, alpha, statement(x, alpha)))
        assert len(cases) == 2 * 3240
        return cases

    def test_iii_squares_no_form(self, monkeypatch):
        # (iii) on a stream squares no form: it runs the integer residue
        # search at the Farey proxy, so with sign_of_quadratic refusing a
        # quadratic term in both modules that could reach it, its verdicts
        # stand
        cases = self.stream_cases(is_best_approx_2nd)

        def linear_only(q2, q1, q0, alpha):
            assert q2 == 0, "a squared form"
            return sign_of_quadratic(q2, q1, q0, alpha)

        for module in (real, verify):  # wherever it is bound
            if hasattr(module, "sign_of_quadratic"):
                monkeypatch.setattr(module, "sign_of_quadratic", linear_only)
        for x, alpha, held in cases:
            assert is_best_approx_2nd(x, alpha) == held, (alpha, x)
        assert sum(held for *_, held in cases) == 2 * (7 + 5 + 5 + 5)

    def test_iv_builds_no_radius(self, monkeypatch):
        # (iv) on a stream builds no radius object and makes no sign test:
        # it runs the integer descent at the Farey proxy, so with
        # QuadraticRadius refusing to be built, its verdicts stand and
        # sign_of_quadratic is never called
        cases = self.stream_cases(is_nearby)

        def refuse(radius):
            raise AssertionError("a radius object")

        calls = 0

        def counted(q2, q1, q0, alpha):
            nonlocal calls
            calls += 1
            return sign_of_quadratic(q2, q1, q0, alpha)

        monkeypatch.setattr(QuadraticRadius, "__post_init__", refuse)
        for module in (real, verify):  # wherever it is bound
            if hasattr(module, "sign_of_quadratic"):
                monkeypatch.setattr(module, "sign_of_quadratic", counted)
        for x, alpha, held in cases:
            assert is_nearby(x, alpha) == held, (alpha, x)
        assert calls == 0
        assert sum(held for *_, held in cases) == 2 * (7 + 5 + 5 + 5)


#: The Fibonacci numbers F_0 = 0, F_1 = 1, ..., F_201; golden's convergents
#: are F_(n+1)/F_n.
FIB = [0, 1]
while len(FIB) <= 201:
    FIB.append(FIB[-1] + FIB[-2])


class TestStreamSizes:
    """(iii) and (iv) on a stream cost one convergent walk to denominator
    2*b and one O(log q) kernel search, on either engine."""

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    def test_golden_far_beyond_any_scan(self, capsys, engine):
        # a loop over every d <= F_200 could not finish
        alpha = golden_ratio() if engine == "surd" else bracket_twin(golden_ratio())
        x = F(FIB[201], FIB[200])
        assert is_best_approx_2nd(x, alpha) is True
        assert is_nearby(x, alpha) is True
        # (F_201 - 2)/F_200 is reduced, (F_201 - 1)/F_200 is not, and
        # (F_201 + 1)/F_200 reduces to the convergent F_101/F_100
        assert F(FIB[201] + 1, FIB[200]) == F(FIB[101], FIB[100])
        for k, held in ((-2, False), (-1, False), (1, True)):
            y = F(FIB[201] + k, FIB[200])
            assert is_best_approx_2nd(y, alpha) is held, y
            assert is_nearby(y, alpha) is held, y
        report = theorem_u_check(x, alpha)
        assert report.consistent and report.stmt_i, report
        assert main(["check", f"{FIB[201]}/{FIB[200]}", "golden"]) == 0
        assert json.loads(capsys.readouterr().out)["consistent"] is True

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    def test_pulls_are_logarithmic_in_b(self, engine):
        # each flag walks golden's convergents to B_k > 2*b, that is
        # k < log_phi(2*b) + 2 coefficient pulls, within 2*bits(b) + 4
        alpha = golden_ratio() if engine == "surd" else bracket_twin(golden_ratio())
        alpha.partials = partials = Counting(alpha.partials)
        for n in range(2, 201, 9):
            for x in (F(FIB[n + 1], FIB[n]), F(FIB[n + 1] + 1, FIB[n])):
                for flag in (is_best_approx_2nd, is_nearby):
                    partials.pulls = 0
                    flag(x, alpha)
                    assert 1 <= partials.pulls <= 2 * x.denominator.bit_length() + 4, \
                        (engine, flag, x, partials.pulls)

    @pytest.mark.parametrize("engine", ["surd", "brackets"])
    def test_flags_ignore_the_refinement_cap(self, monkeypatch, engine):
        # the proxy walk is not bracket refinement, so a cap of 5 pulls
        # that no bracket query at F_40/F_39 could meet does not apply
        monkeypatch.setattr(real, "DEFAULT_MAX_PULLS", 5)
        alpha = golden_ratio() if engine == "surd" else bracket_twin(golden_ratio())
        x = F(FIB[40], FIB[39])
        assert is_best_approx_2nd(x, alpha) is True
        assert is_nearby(x, alpha) is True
        if engine == "brackets":
            with pytest.raises(real.RefinementExhausted):
                compare_real(alpha, x)


def check_xs(pairs: list[tuple[int, int]], max_den: int) -> list[F]:
    """The xs a check workload takes around each convergent A_k/B_k with
    B_k <= max_den: the convergent, the semiconvergent (A_(k-1) + A_k)/
    (B_(k-1) + B_k) for k >= 1, and the far a/B_k with a the first of
    A_k + 2, A_k + 3, ... prime to B_k."""
    xs = []
    for k, (a, b) in enumerate(pairs):
        if b > max_den:
            break
        xs.append(F(a, b))
        if k:
            xs.append(F(a + pairs[k - 1][0], b + pairs[k - 1][1]))
        far = a + 2
        while gcd(far, b) != 1:
            far += 1
        xs.append(F(far, b))
    return xs


class TestOneProxyPerCheck:
    """theorem_u_check takes the Farey proxy of order 2*b once and hands it
    to (iii)'s kernel and to (iv)'s: one coefficient walk fewer per check,
    and the verdicts of the public flags, which each take their own proxy,
    and of the unpruned references."""

    @pytest.mark.parametrize("name", SURD_STREAMS)
    def test_two_walks_and_one_proxy_per_check(self, monkeypatch, name):
        # on the surd engine (ii) and (v) walk nothing, so a check restarts
        # the partials for (i)'s walk to b and for the one proxy walk to 2*b
        make, _ = SURD_STREAMS[name]
        alpha = make()
        alpha.partials = partials = Counting(alpha.partials)
        proxies = []

        def counted(real_alpha, n):
            proxies.append((real_alpha, n))
            return proxy(real_alpha, n)

        proxy = verify._farey_proxy
        monkeypatch.setattr(verify, "_farey_proxy", counted)
        xs = check_xs(list(islice(make().convergent_pairs(), 9)), 10**12)
        for x in xs:
            partials.restarts = 0
            proxies.clear()
            report = theorem_u_check(x, alpha)
            assert report.consistent, report
            assert partials.restarts == 2, (name, x, partials.restarts)
            assert proxies == [(alpha, 2 * x.denominator)], (name, x)
        assert sum(theorem_u_check(x, alpha).stmt_i for x in xs) >= 9

    @pytest.mark.parametrize("key", PROXY_STREAMS)
    def test_stream_verdicts_match_the_flags_and_the_reference(self, key):
        # the reference is the surd's, or, for a stream without one, the
        # rational reference at a convergent of denominator > 10^12: it lies
        # inside the bracket of the proxy of order 2*b for every b <= 200,
        # so in the same Farey cell (_farey_proxy's lemma)
        alpha = make_stream(key)
        pairs = list(islice(make_stream(key).convergent_pairs(), 40))
        if "@" in key:
            surd = SURD_STREAMS[key.split("@")[0]][1]
            best = functools.partial(reference.best_approx_surd, surd=surd)
            near = functools.partial(reference.nearby_surd, surd=surd)
        else:
            deep = F(*next(pair for pair in pairs if pair[1] > 10**12))
            best = functools.partial(reference.best_approx, alpha=deep)
            near = functools.partial(reference.nearby, alpha=deep)
        xs = check_xs(pairs, 200)
        assert len(xs) >= 5
        for x in xs:
            report = theorem_u_check(x, alpha)
            assert report.stmt_iii == is_best_approx_2nd(x, alpha) == best(x), (key, x)
            assert report.stmt_iv == is_nearby(x, alpha) == near(x), (key, x)

    def test_rational_verdicts_match_the_flags_and_the_reference(self):
        for alpha in reduced_fractions_in(F(0), F(1), 40, include_hi=False):
            for x in check_xs(list(ExactReal(alpha).convergent_pairs()), 40):
                report = theorem_u_check(x, alpha)
                assert report.stmt_iii == is_best_approx_2nd(x, alpha) == \
                    reference.best_approx(x, alpha), (alpha, x)
                assert report.stmt_iv == is_nearby(x, alpha) == \
                    reference.nearby(x, alpha), (alpha, x)


class TestStatementVWitness:
    def test_examples(self):
        assert statement_v_witness(F(1, 2), F(3, 5)) == F(2, 3)
        assert statement_v_witness(F(1, 2), F(1, 2)) == F(2, 3)
        assert statement_v_witness(F(1, 3), F(3, 5)) is None
        assert statement_v_witness(F(0), F(3, 5)) is None
        assert statement_v_witness(F(7), F(7)) == F(15, 2)

    def test_witness_properties(self):
        # whenever present: tangent, strictly smaller radius, alpha inside (x, y)
        alphas = list(reduced_fractions_in(F(0), F(1), 9, include_hi=False))
        xs = list(reduced_fractions_in(F(-1, 2), F(3, 2), 9))
        seen = 0
        for alpha in alphas:
            for x in xs:
                y = statement_v_witness(x, alpha)
                if y is None:
                    continue
                seen += 1
                assert are_tangent(x, y)
                assert ford_circle(y).radius < ford_circle(x).radius
                lo, hi = min(x, y), max(x, y)
                if alpha != x:
                    assert lo < alpha < hi
        assert seen > 50

    def test_brute_force_presence(self):
        # independent witness-presence oracle: scan all tangent neighbors with
        # denominator in (b, 2b] on alpha's side (minimal one reaches farthest)
        def brute(x: F, alpha: F):
            a, b = x.numerator, x.denominator
            if alpha == x:
                side = 1
            else:
                side = 1 if alpha > x else -1
            hits = []
            for d in range(b + 1, 2 * b + 1):
                for c in (d * a // b, d * a // b + 1, d * a // b - 1):
                    if gcd(abs(c), d) != 1 or abs(c * b - d * a) != 1:
                        continue
                    y = F(c, d)
                    if (y > x) != (side > 0):
                        continue
                    if alpha == x or min(x, y) < alpha < max(x, y):
                        hits.append(y)
            return max(hits, key=lambda y: abs(y - x), default=None)

        alphas = list(reduced_fractions_in(F(0), F(1), 7, include_hi=False))
        xs = list(reduced_fractions_in(F(-1, 2), F(3, 2), 7))
        for alpha in alphas:
            for x in xs:
                got = statement_v_witness(x, alpha)
                want = brute(x, alpha)
                assert (got is None) == (want is None), (x, alpha)
                if got is not None:
                    assert got == want, (x, alpha)

    def test_stream_alpha(self):
        phi = golden_ratio()
        assert statement_v_witness(F(3, 2), phi) == F(5, 3)
        assert statement_v_witness(F(8, 5), phi) == F(13, 8)
        assert statement_v_witness(F(7, 5), phi) is None

    def test_corollary_presence_implies_nearby(self):
        # a found witness with alpha strictly inside forces the nearby property
        alphas = list(reduced_fractions_in(F(0), F(1), 8, include_hi=False))
        xs = list(reduced_fractions_in(F(-1, 2), F(3, 2), 8))
        for alpha in alphas:
            for x in xs:
                if statement_v_witness(x, alpha) is not None:
                    assert is_nearby(x, alpha)


class TestTheoremUCheck:
    def test_all_true(self):
        report = theorem_u_check(F(1, 2), F(3, 5))
        d = report.to_json_dict()
        assert d == {
            "x": "1/2", "alpha": "3/5", "isInteger": False,
            "stmt_i": True, "stmt_ii": True, "stmt_iii": True,
            "stmt_iv": True, "stmt_v": True, "witness": "2/3",
            "consistent": True,
        }

    def test_all_false(self):
        report = theorem_u_check(F(1, 3), F(3, 5))
        assert not any([report.stmt_i, report.stmt_ii, report.stmt_iii,
                        report.stmt_iv, report.stmt_v])
        assert report.consistent and report.witness is None

    def test_integer_exclusion(self):
        report = theorem_u_check(F(0), F(3, 5))
        assert report.is_integer
        assert report.stmt_i and report.stmt_ii
        assert not report.stmt_iii
        assert report.consistent  # equivalence not asserted for integers

    def test_stream_pairs(self):
        phi = golden_ratio()
        report = theorem_u_check(F(8, 5), phi)
        assert report.alpha == "golden"
        assert all([report.stmt_i, report.stmt_ii, report.stmt_iii,
                    report.stmt_iv, report.stmt_v])
        assert report.witness == F(13, 8)
        report = theorem_u_check(F(2, 3), sqrt_real(2))
        assert not any([report.stmt_i, report.stmt_ii, report.stmt_iii,
                        report.stmt_iv, report.stmt_v])
        assert report.consistent

    def test_rational_alpha_self(self):
        report = theorem_u_check(F(3, 5), F(3, 5))
        assert all([report.stmt_i, report.stmt_ii, report.stmt_iii,
                    report.stmt_iv, report.stmt_v, report.consistent])

    def test_json_serializable(self):
        report = theorem_u_check(F(1, 2), golden_ratio())
        text = json.dumps(report.to_json_dict())
        assert '"alpha": "golden"' in text

    def test_value_semantics(self):
        report = theorem_u_check(F(1, 2), F(3, 5))
        assert repr(report) == (
            "TheoremUReport(x=Fraction(1, 2), alpha='3/5', is_integer=False, stmt_i=True, "
            "stmt_ii=True, stmt_iii=True, stmt_iv=True, stmt_v=True, "
            "witness=Fraction(2, 3), consistent=True)")
        fields = dict(x=F(1, 2), alpha="3/5", is_integer=False, stmt_i=True, stmt_ii=True,
                      stmt_iii=True, stmt_iv=True, stmt_v=True, witness=F(2, 3),
                      consistent=True)
        twin = TheoremUReport(**fields)
        assert report == twin and hash(report) == hash(twin) and len({report, twin}) == 1
        assert report != TheoremUReport(**{**fields, "witness": None})
        assert twin.to_json_dict() == report.to_json_dict()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(report, field, None)
        assert report == twin


def count_unit_grid(n):
    """The xs with 1 < b <= n on (-1, 2), 3 * sum(phi(b)) by a totient
    sieve, then verify_sweep(n, 1, (0, 1))'s totalChecked and its
    tracemalloc peak in bytes."""
    phi = list(range(n + 1))
    for m in range(2, n + 1):
        if phi[m] == m:
            for k in range(m, n + 1, m):
                phi[k] -= phi[k] // m
    tracemalloc.start()
    try:
        report = verify_sweep(n, 1, (F(0), F(1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 3 * sum(phi[2:]), report["totalChecked"], peak


class TestVerifySweep:
    def test_small_sweep_clean(self):
        report = verify_sweep(5, 5, (F(0), F(1)))
        assert report["inconsistencies"] == []
        assert report["params"] == {"maxDenX": 5, "maxDenAlpha": 5, "window": "0..1"}
        assert set(report) == {"params", "totalChecked", "inconsistencies", "elapsed"}

    def test_vacuous_sweep(self):
        report = verify_sweep(1, 1, (F(0), F(1)))
        assert report["totalChecked"] == 0
        assert report["inconsistencies"] == []

    def test_total_checked_count(self):
        report = verify_sweep(5, 5, (F(0), F(1)))
        n_alpha = len(list(reduced_fractions_in(F(0), F(1), 5, include_hi=False)))
        n_x = len([x for x in reduced_fractions_in(F(-1), F(2), 5,
                                                   include_lo=False, include_hi=False)
                   if x.denominator > 1])
        assert report["totalChecked"] == n_alpha * n_x > 0

    def test_matches_theorem_u_check(self):
        # the sweep's per-alpha statement counts equal direct evaluation
        alphas = list(reduced_fractions_in(F(0), F(1), 5, include_hi=False))
        xs = [x for x in reduced_fractions_in(F(-1), F(2), 5,
                                              include_lo=False, include_hi=False)
              if x.denominator > 1]
        true_counts = {}
        for alpha in alphas:
            n = sum(1 for x in xs if theorem_u_check(x, alpha).stmt_i)
            cf = cf_of_rational(alpha)
            expected = len({
                c.value for c in convergents(cf, cf.length)
                if c.den > 1 and F(-1) < c.value < F(2)
            })
            true_counts[alpha] = (n, expected)
        for alpha, (n, expected) in true_counts.items():
            assert n == expected, alpha

    @pytest.mark.parametrize("caps,window", [
        ((5, 5), (F(0), F(1))),
        ((7, 5), (F(-1, 2), F(3, 4))),
        ((9, 4), (F(-7, 3), F(-4, 3))),
        ((4, 7), (F(2, 5), F(5, 2))),
    ])
    def test_total_checked_by_brute_force(self, caps, window):
        # xs open on (lo - 1, hi + 1) without integers, alphas on [lo, hi),
        # counted by comparing every candidate fraction
        (den_max_x, den_max_alpha), (lo, hi) = caps, window

        def count(den_max, keep):
            return sum(1 for b in range(1, den_max + 1)
                       for a in range(int(lo * b) - 2 * b - 2, int(hi * b) + 2 * b + 3)
                       if gcd(a, b) == 1 and keep(F(a, b)))

        n_x = count(den_max_x, lambda x: x.denominator > 1 and lo - 1 < x < hi + 1)
        n_alpha = count(den_max_alpha, lambda alpha: lo <= alpha < hi)
        report = verify_sweep(den_max_x, den_max_alpha, window)
        assert report["totalChecked"] == n_x * n_alpha > 0
        assert report["inconsistencies"] == []

    def test_wide_grid_is_counted_not_listed(self):
        # 146,031 xs on (-1, 2) against one alpha: the xs are counted, so
        # the peak holds no list of the grid
        expected, total, peak = count_unit_grid(400)
        assert total == expected == 146031
        assert peak < 2 << 20

    def test_count_by_inclusion_exclusion(self):
        # 364,771,185 xs on (-1, 2) against one alpha, counted at each b
        # from the primes of b, with no run built: the peak stays below the
        # 2.4 MB of the longest run, at b = 19,997
        expected, total, peak = count_unit_grid(20000)
        assert total == expected == 364771185
        assert peak < 1 << 20

    def test_backends_agree(self):
        per_pair = per_pair_sweep(8, 8, (F(0), F(1)))
        report = verify_sweep(8, 8, (F(0), F(1)))
        assert per_pair["totalChecked"] == report["totalChecked"]
        assert per_pair["inconsistencies"] == report["inconsistencies"] == []

    def test_window_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            verify_sweep(5, 5, (F(1), F(0)))
        with pytest.raises(ValueError, match=">= 1"):
            verify_sweep(0, 5, (F(0), F(1)))

    def test_negative_window(self):
        report = verify_sweep(6, 6, (F(-2), F(-1)))
        assert report["inconsistencies"] == []
        assert report["totalChecked"] > 0


class TestCandidateSets:
    """The per-alpha candidate sets against the per-pair kernels: the search
    of (iii) and of (iv), run once at x's form by a flag and at falling
    thresholds by a set, and (v)'s descent against its flag."""

    @staticmethod
    def random_alphas(seed: int, count: int):
        # windows of integer part in [-60, 60), below zero, and at 2^30 and up
        rng = random.Random(seed)
        for _ in range(count):
            base = rng.choice([rng.randrange(-60, 60), -rng.randrange(1, 1 << 31),
                               (1 << 30) + rng.randrange(1 << 32)])
            q = rng.randint(1, 40)
            yield base * q + rng.randrange(q), q

    @pytest.mark.parametrize("seed", range(4))
    def test_sets_match_pair_flags(self, seed):
        rng = random.Random(1000 + seed)
        for p, q in self.random_alphas(seed, 12):
            if gcd(p, q) != 1:
                continue
            max_den = rng.randint(1, 24)
            best = _kernel.best_set(p, q, max_den)
            near = _kernel.near_set(p, q, max_den)
            witness = _kernel.witness_set(p, q, max_den)
            seen = set()
            for b in range(1, max_den + 1):
                c0 = b * p // q
                for a in range(c0 - 3, c0 + 5):
                    if gcd(a, b) != 1:
                        continue
                    seen.add((a, b))
                    assert ((a, b) in best) == _kernel.best_flag(a, b, p, q), (a, b, p, q)
                    assert ((a, b) in near) == _kernel.near_flag(a, b, p, q), (a, b, p, q)
                    assert ((a, b) in witness) == _kernel.witness_flag(a, b, p, q), \
                        (a, b, p, q)
            # every member of the sets was among the pairs checked above
            assert best | near | witness <= seen

    def test_sets_hold_the_convergents(self):
        cf = cf_of_rational(F(355, 113))
        convs = {(c.num, c.den) for c in convergents(cf, cf.length) if c.den > 1}
        for make in (_kernel.best_set, _kernel.near_set, _kernel.witness_set):
            found = make(355, 113, 120)
            assert {x for x in found if x[1] > 1} == convs

    @pytest.mark.parametrize("caps, window", [
        ((12, 6), (F(-7, 2), F(-5, 2))),
        ((6, 5), (F(1 << 30), F((1 << 30) + 1))),
        ((9, 4), (F(-(1 << 31) - 1, 2), F(-(1 << 31) + 1, 2))),
        ((6, 12), (F(-7, 2), F(-5, 2))),  # the chain's cap below alpha's denominators
    ])
    def test_engines_agree(self, caps, window):
        per_pair = per_pair_sweep(*caps, window)
        report = verify_sweep(*caps, window)
        assert per_pair["totalChecked"] == report["totalChecked"] > 0
        assert per_pair["inconsistencies"] == report["inconsistencies"] == []

    @pytest.mark.parametrize("window, flipped, expected", [
        # three candidate pairs, two true and one false
        ((F(0), F(1)), {(1, 3, 1, 4), (1, 2, 3, 5), (2, 3, 3, 5)}, [
            ("1/3", "1/4", (False, False, False, False, True)),
            ("1/2", "3/5", (True, True, True, True, False)),
            ("2/3", "3/5", (False, False, False, False, True)),
        ]),
        # two convergents and a false pair of -8/5 = [-2; 2, 2], whose
        # numerators fall as the denominators rise
        ((F(-7, 3), F(-4, 3)), {(-3, 2, -8, 5), (-5, 3, -8, 5), (-8, 5, -8, 5)}, [
            ("-3/2", "-8/5", (True, True, True, True, False)),
            ("-5/3", "-8/5", (False, False, False, False, True)),
            ("-8/5", "-8/5", (True, True, True, True, False)),
        ]),
        # false pairs of 1/2 off its Stern-Brocot path, one near
        # hi + 1, and a convergent of 7/3 past the integer 2
        ((F(2, 5), F(5, 2)), {(1, 4, 1, 2), (2, 3, 1, 2), (10, 3, 1, 2), (7, 3, 7, 3)}, [
            ("2/3", "1/2", (False, False, False, False, True)),
            ("10/3", "1/2", (False, False, False, False, True)),
            ("1/4", "1/2", (False, False, False, False, True)),
            ("7/3", "7/3", (True, True, True, True, False)),
        ]),
    ], ids=["unit", "negative", "wide"])
    def test_engines_report_the_same_inconsistencies(self, monkeypatch, window, flipped,
                                                     expected):
        # statement (v) flipped on the pairs (a, b, p, q) in both engines;
        # the reports list them in (b, a) order within each alpha
        reference_flag, reference_set = _kernel.witness_flag, _kernel.witness_set

        def witness_flag(a, b, p, q):
            return reference_flag(a, b, p, q) != ((a, b, p, q) in flipped)

        def witness_set(p, q, max_den):
            # the set calls the flag on the path nodes it tries, and takes
            # the flipped pairs that it skips as well
            return reference_set(p, q, max_den) | {
                (a, b) for a, b, pp, qq in flipped
                if (pp, qq) == (p, q) and b <= max_den and witness_flag(a, b, p, q)}

        monkeypatch.setattr(_kernel, "witness_flag", witness_flag)
        monkeypatch.setattr(_kernel, "witness_set", witness_set)
        per_pair = per_pair_sweep(8, 8, window)
        report = verify_sweep(8, 8, window)
        names = ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v")
        assert per_pair["inconsistencies"] == report["inconsistencies"] == [
            {"x": x, "alpha": alpha, **dict(zip(names, stmts))}
            for x, alpha, stmts in expected]

    @pytest.mark.parametrize("window", [
        (F(0), F(1)), (F(-7, 3), F(-4, 3)), (F(2, 5), F(5, 2))], ids=["unit", "negative", "wide"])
    @pytest.mark.parametrize("step", [0, 1], ids=["n", "n+1"])
    def test_integer_pairs_change_no_report(self, monkeypatch, window, step):
        # negative control: a (iv) set flipped only at an integer beside
        # alpha, n = floor(alpha) or n + 1, which the sweep never visits
        unpatched = verify_sweep(8, 8, window)
        reference_set = _kernel.near_set
        monkeypatch.setattr(_kernel, "near_set", lambda p, q, max_den:
                            reference_set(p, q, max_den) ^ {(p // q + step, 1)})
        report = verify_sweep(8, 8, window)
        del unpatched["elapsed"], report["elapsed"]
        assert report == unpatched

    @pytest.mark.parametrize("window", [
        (F(0), F(1)), (F(-7, 3), F(-4, 3)), (F(2, 5), F(5, 2))], ids=["unit", "negative", "wide"])
    def test_witness_set_needs_no_other_statement(self, monkeypatch, window):
        # (iii)'s residue search and generator and (iv)'s descent raise,
        # and (i)'s and (ii)'s kernels do while (v)'s set runs; (iii) and
        # (iv) come from the unpruned references, and (v)'s set, held
        # against its reference at every alpha, gives the same report
        unpatched = verify_sweep(8, 8, window)
        for name in ("_first_hit", "_best_hits", "_near_hits"):
            monkeypatch.setattr(_kernel, name, _refuse)
        witness_set = _kernel.witness_set

        def by_reference(oracle):
            def make(p, q, max_den):
                return {(a, b) for b in range(1, max_den + 1)
                        for a in range(b * p // q - 1, b * p // q + 3)
                        if gcd(a, b) == 1 and oracle(F(a, b), F(p, q))}
            return make

        def checked(p, q, max_den):
            with monkeypatch.context() as refused:
                for name in ("conv_set", "chain_set"):
                    refused.setattr(_kernel, name, _refuse)
                found = witness_set(p, q, max_den)
            assert found == reference.witness_set(p, q, max_den), (p, q, max_den)
            return found

        monkeypatch.setattr(_kernel, "best_set", by_reference(reference.best_approx))
        monkeypatch.setattr(_kernel, "near_set", by_reference(reference.nearby))
        monkeypatch.setattr(_kernel, "witness_set", checked)
        report = verify_sweep(8, 8, window)
        del unpatched["elapsed"], report["elapsed"]
        assert report == unpatched

    @pytest.mark.parametrize("window, extra", [
        # lo - 1 and hi + 1, an integer in the window, and a pair past den_max_x
        ((F(2, 5), F(5, 2)), {(-3, 5), (7, 2), (1, 1), (4, 9)}),
        ((F(-7, 3), F(-4, 3)), {(-10, 3), (-1, 3), (-2, 1), (-20, 9)}),
    ], ids=["wide", "negative"])
    def test_off_grid_pairs_are_never_reported(self, monkeypatch, window, extra):
        # a (iii) set holding pairs off the x grid would make each of them
        # an inconsistency, were it visited
        unpatched = verify_sweep(8, 8, window)
        reference_set = _kernel.best_set
        monkeypatch.setattr(_kernel, "best_set",
                            lambda p, q, max_den: reference_set(p, q, max_den) | extra)
        report = verify_sweep(8, 8, window)
        del unpatched["elapsed"], report["elapsed"]
        assert report == unpatched
        assert report["totalChecked"] > 0


class TestPenultimatePair:
    def test_example(self):
        prev, last, u, v = penultimate_pair(F(3, 5))
        assert (prev.num, prev.den) == (1, 2)
        assert (last.num, last.den) == (3, 5)
        assert (u, v) == (2, 3)

    def test_integer_rejected(self):
        with pytest.raises(ValueError, match="penultimate"):
            penultimate_pair(F(7))

    def test_construction_properties(self):
        # coprime and strictly-between hold for every rational with N >= 1;
        # the lower denominator bound is strict exactly when N >= 2, and at
        # N = 1 the normalized expansion forces v = B_0 = 1 via b_1 = 2 ties
        for alpha in reduced_fractions_in(F(0), F(1), 40,
                                          include_lo=False, include_hi=False):
            cf = cf_of_rational(alpha)
            n_index = cf.length - 1
            prev, last, u, v = penultimate_pair(alpha)
            assert gcd(abs(u), v) == 1
            assert v < last.den
            lo, hi = sorted((prev.value, F(u, v)))
            assert lo < alpha < hi
            if n_index >= 2:
                assert prev.den < v
            else:
                assert prev.den == 1
                assert v >= prev.den
                b1 = list(cf.coefficients())[1]
                assert (v == prev.den) == (b1 == 2)

    def test_translation_equivariance(self):
        # shifting alpha by an integer shifts numerators and keeps v
        for alpha in (F(3, 5), F(2, 7), F(5, 8)):
            _, _, u0, v0 = penultimate_pair(alpha)
            for m in (-2, -1, 1, 3):
                _, _, u, v = penultimate_pair(alpha + m)
                assert v == v0
                assert u == u0 + m * v0
