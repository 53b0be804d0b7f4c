"""Best-approximation oracle, nearby predicate, witness search, equivalence
checker, and sweep reports."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from math import gcd

import pytest

import reference
from fordcircles import (
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
from fordcircles._kernel import _pure


def per_pair_sweep(den_max_x, den_max_alpha, window):
    """The per-pair reference for verify_sweep: every pair of the same grid,
    (i) and (ii) from the convergents, (iii)-(v) from the per-pair kernels."""
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
                     _pure.best_flag(a, b, p, q), _pure.near_flag(a, b, p, q),
                     _pure.witness_flag(a, b, p, q))
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
    """The per-alpha candidate sets against the per-pair reference kernels."""

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
            best = _pure.best_set(p, q, max_den)
            near = _pure.near_set(p, q, max_den)
            witness = _pure.witness_set(p, q, max_den)
            seen = set()
            for b in range(1, max_den + 1):
                c0 = b * p // q
                for a in range(c0 - 3, c0 + 5):
                    if gcd(a, b) != 1:
                        continue
                    seen.add((a, b))
                    assert ((a, b) in best) == _pure.best_flag(a, b, p, q), (a, b, p, q)
                    assert ((a, b) in near) == _pure.near_flag(a, b, p, q), (a, b, p, q)
                    assert ((a, b) in witness) == _pure.witness_flag(a, b, p, q), \
                        (a, b, p, q)
            # every member of the sets was among the pairs checked above
            assert best | near | witness <= seen

    def test_sets_hold_the_convergents(self):
        cf = cf_of_rational(F(355, 113))
        convs = {(c.num, c.den) for c in convergents(cf, cf.length) if c.den > 1}
        for make in (_pure.best_set, _pure.near_set, _pure.witness_set):
            found = make(355, 113, 120)
            assert {x for x in found if x[1] > 1} == convs

    @pytest.mark.parametrize("caps, window", [
        ((12, 6), (F(-7, 2), F(-5, 2))),
        ((6, 5), (F(1 << 30), F((1 << 30) + 1))),
        ((9, 4), (F(-(1 << 31) - 1, 2), F(-(1 << 31) + 1, 2))),
    ])
    def test_engines_agree(self, caps, window):
        per_pair = per_pair_sweep(*caps, window)
        report = verify_sweep(*caps, window)
        assert per_pair["totalChecked"] == report["totalChecked"] > 0
        assert per_pair["inconsistencies"] == report["inconsistencies"] == []

    def test_engines_report_the_same_inconsistencies(self, monkeypatch):
        # flip statement (v) on three candidate pairs, two true and one false
        flipped = {(1, 3, 1, 4), (1, 2, 3, 5), (2, 3, 3, 5)}
        reference = _pure.witness_flag

        def witness_flag(a, b, p, q):
            return reference(a, b, p, q) != ((a, b, p, q) in flipped)

        monkeypatch.setattr(_pure, "witness_flag", witness_flag)
        per_pair = per_pair_sweep(8, 8, (F(0), F(1)))
        report = verify_sweep(8, 8, (F(0), F(1)))

        def entry(x, alpha, stmts):
            names = ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v")
            return {"x": x, "alpha": alpha, **dict(zip(names, stmts))}

        assert per_pair["inconsistencies"] == report["inconsistencies"] == [
            entry("1/3", "1/4", (False, False, False, False, True)),
            entry("1/2", "3/5", (True, True, True, True, False)),
            entry("2/3", "3/5", (False, False, False, False, True)),
        ]


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
