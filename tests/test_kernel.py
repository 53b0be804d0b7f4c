"""The integer kernels agree with the Fraction-based statement oracles, and
each statement's set kernel is equivariant under t -> +-t + n."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from fordcircles import (
    is_nearby,
    reduced_fractions_in,
    statement_v_witness,
    theorem_u_check,
)
from fordcircles import _kernel, real, verify
from fordcircles.cf import cf_of_rational, convergents
from fordcircles.real import ExactReal

#: caps around the denominators of small alphas, where a cap test off by one
#: shows; statement (ii)'s tests in test_verify.py use the same
CHAIN_CAPS = (1, 2, 3, 7, 20, 39, 40, 41, 200)


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
            assert _kernel.best_flag(a, b, p, q) == reference.best_approx(x, alpha)
            assert _kernel.near_flag(a, b, p, q) == reference.nearby(x, alpha)
            assert _kernel.witness_flag(a, b, p, q) == theorem_u_check(x, alpha).stmt_v

    def test_witness_flag_matches_search(self):
        for a, b, p, q in _pairs(8, 8):
            found = statement_v_witness(F(a, b), F(p, q)) is not None
            assert _kernel.witness_flag(a, b, p, q) == found


def _convergents_of(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """The convergents of p/q with denominator <= max_den, read from cf.py's
    expansion."""
    expansion = cf_of_rational(F(p, q))
    return {(c.num, c.den) for c in convergents(expansion, expansion.length)
            if c.den <= max_den}


class TestEveryStepAdvances:
    """Each kernel loop makes progress at every step: a loop that stalls
    fails an assertion here at once instead of running on.  These come
    before every test that builds a whole set."""

    #: (p, q, length of the expansion): [0; 3, 10^4], 1/10^40 (one quotient
    #: of 10^40), F_50/F_51 = [0; 1, ..., 1, 2], 355/113 = [3; 7, 16],
    #: -7/2 = [-4; 2] and the integer 5
    LONG = [(10**4, 3 * 10**4 + 1, 3), (1, 10**40, 2),
            (12586269025, 20365011074, 50), (355, 113, 3), (-7, 2, 2), (5, 1, 1)]

    def test_best_records_rise_in_d(self):
        # each record of (iii) lowers the threshold below its own form, so
        # the next one has a larger d; the last two alphas have one record
        for p, q, _ in self.LONG[:4]:
            records = list(islice(_kernel._best_hits(p, q, (q - 1) // 2, q), 6))
            assert len(records) >= 2, (p, q)
            assert all(r[1] < s[1] for r, s in zip(records, records[1:])), (p, q, records)

    def test_near_descent_takes_a_root_per_step(self, monkeypatch):
        # [0; 3, 10^4]: the records past d = 1 are 1/3 and alpha, each found
        # by a step of its own, and each step takes the root of the current
        # threshold; a stale root would cross the run of 10^4 mediants one
        # at a time
        p, q = 10**4, 3 * 10**4 + 1
        calls = []

        def counted(n):
            calls.append(n)
            if len(calls) > 4:
                raise AssertionError("the descent took more roots than steps")
            return root(n)

        root = _kernel.isqrt
        monkeypatch.setattr(_kernel, "isqrt", counted)
        assert _kernel.near_set(p, q, q) == {(0, 1), (1, 3), (p, q)}
        assert 2 <= len(calls) <= 3, calls

    def test_rational_walks_take_one_divmod_per_quotient(self, monkeypatch):
        # (i)'s walk and (ii)'s descent each take one divmod per partial
        # quotient, up to alpha itself at cap q, and none past a cap below
        calls = [0]

        def counted(n, m):
            calls[0] += 1
            if calls[0] > 60:
                raise AssertionError("a walk took more steps than alpha has quotients")
            return divmod(n, m)

        monkeypatch.setattr(_kernel, "divmod", counted, raising=False)
        for p, q, length in self.LONG:
            for walk in (_kernel.conv_set, _kernel.chain_set):
                calls[0] = 0
                assert walk(p, q, q) == _convergents_of(p, q, q), (walk, p, q)
                assert calls[0] == length, (walk, p, q, calls[0])


class TestNonReducedCandidates:
    """Small q with integer parts -3..3: c0 = floor(d*alpha) runs through 0
    and through multiples of q, where many candidates are not reduced."""

    def test_flags_and_sets_match_references(self):
        max_den = 12
        for q in range(1, max_den + 1):
            for p in range(-3 * q, 4 * q):
                if gcd(p, q) != 1:
                    continue
                best, near, witness = set(), set(), set()
                # a pair with |b*alpha - a| > 1/2 holds neither statement
                # (the nearer candidate at d = 1 beats it), and one with
                # |b*alpha - a| >= 1 has no witness; the set comparisons
                # below confirm it for every b <= max_den
                for b in range(1, max_den + 1):
                    m = b * p // q
                    for a in range(m - 2, m + 4):
                        if gcd(a, b) != 1:
                            continue
                        x, alpha = F(a, b), F(p, q)
                        best_ok = reference.best_approx(x, alpha)
                        near_ok = reference.nearby(x, alpha)
                        assert _kernel.best_flag(a, b, p, q) == best_ok, (x, alpha)
                        assert _kernel.near_flag(a, b, p, q) == near_ok, (x, alpha)
                        if best_ok:
                            best.add((a, b))
                        if near_ok:
                            near.add((a, b))
                        if _kernel.witness_flag(a, b, p, q):
                            witness.add((a, b))
                assert _kernel.best_set(p, q, max_den) == best, (p, q)
                assert _kernel.near_set(p, q, max_den) == near, (p, q)
                assert _kernel.witness_set(p, q, max_den) == witness, (p, q)


class TestCheckRationalScale:
    """Alphas with q in [10^6, 10^7], the scale of check-rational, against the
    unpruned references: at every convergent with b <= 300, a semiconvergent
    and a far fraction, and the sets on every pair checked.  witness_set is
    held against witness_flag on every reduced a/b within 2 of b*alpha."""

    @staticmethod
    def alphas(seed: int, count: int):
        # p/q from seeded coefficients, so the convergents come for free
        rng = random.Random(seed)
        while count:
            pairs = [(1, 0), (rng.randint(-5, 5), 1)]
            while pairs[-1][1] < 10**6:
                k = rng.choice((1, 1, 2, 3, 5, 9, 40))
                (h0, k0), (h1, k1) = pairs[-2:]
                pairs.append((k * h1 + h0, k * k1 + k0))
            if pairs[-1][1] <= 10**7:
                count -= 1
                yield pairs[-1], pairs[1:]

    def test_flags_and_sets_match_references(self):
        max_den = 300
        for (p, q), convs in self.alphas(seed=7, count=24):
            alpha = F(p, q)
            head = [x for x in convs if x[1] <= max_den]
            (h0, k0), (h1, k1) = head[-2:]
            mediant = (h0 + h1, k0 + k1)  # a semiconvergent or the next convergent
            # |k1*alpha - a| > 1/2, so the nearer candidate at d = 1 beats it
            far = next((h1 + t, k1) for t in range(1, k1 + 2) if gcd(h1 + t, k1) == 1)
            best = _kernel.best_set(p, q, max_den)
            near = _kernel.near_set(p, q, max_den)
            for a, b in set(head) | {mediant, far} | best | near:
                x = F(a, b)
                best_ok = reference.best_approx(x, alpha)
                near_ok = reference.nearby(x, alpha)
                assert _kernel.best_flag(a, b, p, q) == best_ok, (x, alpha)
                assert _kernel.near_flag(a, b, p, q) == near_ok, (x, alpha)
                if b <= max_den:
                    assert ((a, b) in best) == best_ok, (x, alpha)
                    assert ((a, b) in near) == near_ok, (x, alpha)
            witness = {(a, b) for b in range(1, max_den + 1)
                       for a in range(b * p // q - 1, b * p // q + 3)
                       if gcd(a, b) == 1 and _kernel.witness_flag(a, b, p, q)}
            assert _kernel.witness_set(p, q, max_den) == witness, alpha

    def test_best_flag_at_check_rational_denominators(self):
        # q in 2e6..8e6 and a convergent with b in 6000..20000, as in the
        # check-rational benchmark; the next partial quotient is at least 2,
        # so the mediant with the previous convergent is a semiconvergent
        rng, found = random.Random(11), 0
        while found < 4:
            pairs = [(1, 0), (rng.randint(-2, 2), 1)]
            while pairs[-1][1] < 2 * 10**6:
                k = rng.choice((1, 1, 2, 3, 5, 9))
                (h0, k0), (h1, k1) = pairs[-2:]
                pairs.append((k * h1 + h0, k * k1 + k0))
            p, q = pairs[-1]
            picks = [i for i in range(2, len(pairs) - 1)
                     if 6000 <= pairs[i][1] <= 20000
                     and pairs[i + 1][1] >= 2 * pairs[i][1] + pairs[i - 1][1]]
            if q > 8 * 10**6 or not picks:
                continue
            found += 1
            (h0, k0), (h1, k1) = pairs[picks[0] - 1], pairs[picks[0]]
            alpha = F(p, q)
            for a, b in ((h1, k1), (h0 + h1, k0 + k1)):
                assert _kernel.best_flag(a, b, p, q) == reference.best_approx(F(a, b), alpha), \
                    (a, b, p, q)
            assert _kernel.best_flag(h1, k1, p, q)


def _first_hit_by_scan(a: int, m: int, lo: int, hi: int) -> int | None:
    # a*k mod m has period dividing m
    return next((k for k in range(m) if lo <= a * k % m <= hi), None)


def _records_by_scan(p: int, q: int, max_den: int, squared: bool) -> list[tuple[int, int]]:
    # the nearer candidate (c, d) at each d <= max_den whose form, or its
    # square, is strictly below every one at smaller d, in order of d; a tie
    # (r == q - r) lowers the record but is no record
    records, least = [], q * q + 1
    for d in range(1, max_den + 1):
        c, r = divmod(d * p, q)
        near, far = (r, q - r) if 2 * r <= q else (q - r, r)
        if squared:
            near, far = near * near, far * far
        if near < least:
            least = near
            if near != far:
                records.append((c + (2 * r > q), d))
    return records


@st.composite
def _windows(draw):
    m = draw(st.integers(1, 300))
    a = draw(st.one_of(st.integers(),
                       st.sampled_from((0, m, -m, m // 2, -(m // 2), m - 1, m + 1, 3 * m + 1))))
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo, m - 1))
    return a, m, lo, hi


class TestFirstHit:
    """_kernel._first_hit, the residue search behind best_flag, against a scan
    over k < m."""

    @given(_windows())
    @example((0, 7, 1, 6))  # no multiple of 0 but 0: None
    @example((0, 7, 0, 0))
    @example((4, 8, 1, 3))  # 2*a == m, and only 0 and 4 are hit: None
    @example((4, 8, 4, 4))  # a hit: 1
    @example((-3, 10, 0, 9))
    @example((301, 300, 299, 299))
    @example((9, 10, 1, 1))  # m = 1 (mod a): the reflection's case
    def test_matches_scan(self, window):
        assert _kernel._first_hit(*window) == _first_hit_by_scan(*window)

    def test_m_one_mod_a_takes_few_steps(self):
        # unreflected, each step of the search only lowers a by one here, so
        # these would take about m steps (and a recursive search would
        # overflow the stack)
        m = 10**30
        assert _kernel._first_hit(m - 1, m, 1, 1) == m - 1
        for p, q in ((10**6, 3 * 10**6 + 1), (10**30, 3 * 10**30 + 1)):
            assert _kernel.best_flag(p, q, p, q) is True


@st.composite
def _near_cases(draw):
    q = draw(st.integers(1, 10**7))
    p = draw(st.integers(-q, 2 * q))
    g = gcd(p, q)
    return p // g, q // g, draw(st.integers(1, 2000)), draw(st.integers(-1, 2)), \
        draw(st.integers(0, 30))


class TestRecords:
    """The sets and the flags of (iii) and (iv) against a scan of the records
    over every d <= max_den, and against the unpruned references at small b."""

    @given(_near_cases())
    @example((1, 2, 1, 0, 0))  # the tie at d = 1: alpha = 1/2 against 0/1
    @example((1, 2, 1, 1, 0))  # and against 1/1
    @example((-3, 2, 5, 0, 1))
    @example((7, 1, 9, 0, 0))  # an integer alpha
    @example((3, 7, 7, 0, 3))  # x = alpha
    @example((10**6, 3 * 10**6 + 1, 2000, 0, 30))  # a long first run
    def test_matches_scan(self, case):
        # x = floor(b*alpha) + offset over b, and the record at index pick
        # (ordered by d) if there is one
        p, q, max_den, offset, pick = case
        best = _records_by_scan(p, q, max_den, squared=False)
        near = _records_by_scan(p, q, max_den, squared=True)
        assert _kernel.best_set(p, q, max_den) == set(best), (p, q, max_den)
        assert _kernel.near_set(p, q, max_den) == set(near), (p, q, max_den)
        xs = [(max_den * p // q + offset, max_den)] + best[pick:pick + 1] + near[pick:pick + 1]
        for a, b in xs:
            # the records at b' < b are the records of the scan to b'
            best_held, near_held = (a, b) in best, (a, b) in near
            assert _kernel.best_flag(a, b, p, q) == best_held, (a, b, p, q)
            assert _kernel.near_flag(a, b, p, q) == near_held, (a, b, p, q)
            if b <= 60 and gcd(a, b) == 1:
                assert reference.best_approx(F(a, b), F(p, q)) == best_held, (a, b, p, q)
                assert reference.nearby(F(a, b), F(p, q)) == near_held, (a, b, p, q)


class TestWitnessScanBound:
    """witness_set holds no b above q.  The lemma: a witness x = a/b != p/q
    has 1 <= |b*p - a*q| and |b*p - a*q| * b < q, so b < q, and x == p/q
    has b == q.  Held against the unpruned witness_flag on every reduced
    a/b with b <= X within 1 of alpha (a witness lies within 1/2), with X
    far above q."""

    @staticmethod
    def by_flag(p, q, max_den):
        c = p // q
        return {(x.numerator, x.denominator)
                for x in reduced_fractions_in(F(c - 1), F(c + 2), max_den)
                if _kernel.witness_flag(x.numerator, x.denominator, p, q)}

    def test_sweep_shape_75_5(self):
        # verify 75/5: every alpha in [0, 1) with q <= 5 against b <= 75
        for alpha in reduced_fractions_in(F(0), F(1), 5, include_hi=False):
            p, q = alpha.numerator, alpha.denominator
            assert _kernel.witness_set(p, q, 75) == self.by_flag(p, q, 75), alpha

    def test_caps_around_and_far_above_q(self):
        for alpha in reduced_fractions_in(F(-2), F(2), 9, include_hi=False):
            p, q = alpha.numerator, alpha.denominator
            full = self.by_flag(p, q, 45)
            assert max(b for _, b in full) == q  # alpha itself
            for cap in {1, q - 1 or 1, q, q + 1, 3 * q, 45}:
                want = {(a, b) for a, b in full if b <= cap}
                assert _kernel.witness_set(p, q, cap) == want, (alpha, cap)


def _turns(p, q):
    """The denominators of the nodes either side of each turn of p/q's
    Stern-Brocot path, walked one mediant at a time from floor(p/q) and
    floor(p/q) + 1: a run's last node on one side of p/q and the next node,
    on the other side or p/q itself.  Those are witness_set's candidates
    M_(J-1) and M_J."""
    if q == 1:
        return {1}  # alpha is a start end
    (a, b), (c, d) = (p // q, 1), (p // q + 1, 1)
    turns, last = {1}, None
    while True:
        m, n = a + c, b + d
        side = (m * q > n * p) - (m * q < n * p)
        if last is not None and side != last[1]:
            turns |= {last[0], n}
        if side == 0:
            return turns
        last = (n, side)
        (a, b), (c, d) = ((a, b), (m, n)) if side > 0 else ((m, n), (c, d))


class TestWitnessDescent:
    """witness_set descends alpha's Stern-Brocot path and tries two nodes
    per run, M_(J-1) and M_J.  Held against the scan of every b <= min(X, q)
    in tests/reference.py at caps on each run's M_(J-1) and M_J and one
    either side of each, where a run length or a cap test off by one shows,
    and on long runs: 1/q, (q - 1)/q and large partial quotients."""

    @staticmethod
    def caps(p, q):
        return {cap for b in _turns(p, q) for cap in (b - 1, b, b + 1) if cap >= 1}

    @staticmethod
    def check(p, q, caps):
        for cap in caps:
            assert _kernel.witness_set(p, q, cap) == reference.witness_set(p, q, cap), \
                (p, q, cap)

    def test_turns_of_a_known_path(self):
        # 7/5 = [1; 2, 2]: 3/2 above, 4/3 below, then 7/5 itself
        assert _turns(7, 5) == {1, 2, 3, 5}
        assert _turns(1, 4) == {1, 3, 4}  # 1/2 and 1/3 above, then 1/4
        assert _turns(3, 1) == {1}  # an integer is a start end

    def test_every_alpha_up_to_q_60(self):
        for q in range(1, 61):
            for p in range(-q, 2 * q):
                if gcd(p, q) == 1:
                    self.check(p, q, self.caps(p, q))

    def test_long_runs(self):
        fib = [1, 1]
        while len(fib) < 20:
            fib.append(fib[-1] + fib[-2])
        alphas = [(1, q) for q in (2, 3, 50, 999)] + [(q - 1, q) for q in (3, 50, 999)]
        alphas += [(-1, 700), (701, 700), (fib[-2], fib[-1]), (fib[-1], fib[-2])]
        alphas += [(55 * 40 + 1, 3 * (55 * 40 + 1) + 40)]  # [0; 3, 55, 40]
        for p, q in alphas:
            self.check(p, q, self.caps(p, q) | {q // 2, 3 * q})

    def test_random_alphas(self):
        rng = random.Random(12)
        for _ in range(40):
            q = rng.randint(2, 10000)
            p = rng.randint(-q, 3 * q)
            if gcd(p, q) == 1:
                self.check(p, q, self.caps(p, q) | {rng.randint(1, q)})

    @pytest.mark.parametrize("p, q", [
        (10**9, 3 * 10**9 + 1),          # [0; 3, 10**9]
        (1, 10**12 - 11),                # [0; 10**12 - 11], one run
        (12586269025, 20365011074),      # F_50/F_51, every quotient 1
        (314159265359, 10**11),
        (-999999999989, 10**12),
    ])
    def test_large_q_holds_the_convergents(self, p, q):
        # the paper's theorem: with the integers set aside, (v)'s set is the
        # convergents with b <= X, read from cf.py's own expansion; at a
        # small cap it is also the unpruned scan's
        expansion = cf_of_rational(F(p, q))
        convs = {(c.num, c.den) for c in convergents(expansion, expansion.length)}
        for cap in (10**7, 3000):
            found = _kernel.witness_set(p, q, cap)
            assert {x for x in found if x[1] > 1} == {x for x in convs if 1 < x[1] <= cap}
        assert _kernel.witness_set(p, q, 3000) == reference.witness_set(p, q, 3000)

    def test_reaches_no_other_statement(self, monkeypatch):
        # (v)'s set with (iii)'s residue search and generator, (iv)'s descent,
        # (i)'s and (ii)'s kernels and (ii)'s chain walk made to raise
        for name in ("_first_hit", "_best_hits", "_near_hits", "conv_set", "chain_set"):
            monkeypatch.setattr(_kernel, name, _refuse)
        monkeypatch.setattr(verify, "_chain_upto", _refuse)
        for q in range(1, 40):
            for p in range(-q, 2 * q):
                if gcd(p, q) == 1:
                    self.check(p, q, self.caps(p, q) | {3 * q})


class TestRationalWalks:
    """Statements (i) and (ii) at a rational in integers: conv_set's
    recurrence on Euclid's quotients and chain_set's mediant descent, which
    the sweep and the checks take, held against cf.py's expansion and (i)'s
    walk on ExactReal; neither kernel reaches the other or real.py."""

    @staticmethod
    def alphas(max_den):
        return [(alpha.numerator, alpha.denominator)
                for alpha in reduced_fractions_in(F(-3), F(3), max_den, include_hi=False)]

    def test_match_the_walks_and_the_expansion(self):
        for p, q in self.alphas(40):
            exact = ExactReal(F(p, q))
            for cap in CHAIN_CAPS:
                expected = _convergents_of(p, q, cap)
                assert _kernel.conv_set(p, q, cap) == expected, (p, q, cap)
                assert _kernel.chain_set(p, q, cap) == expected, (p, q, cap)
                assert verify._convergents_upto(exact, cap) == expected, (p, q, cap)

    @settings(deadline=None, max_examples=300)
    @given(st.fractions(-10**6, 10**6, max_denominator=10**12),
           st.one_of(st.integers(1, 50), st.integers(1, 10**13)), st.data())
    def test_rationals_up_to_10_to_12(self, alpha, cap, data):
        p, q = alpha.numerator, alpha.denominator
        cap = data.draw(st.sampled_from((cap, max(1, q - 1), q, q + 1)), label="cap")
        expected = _convergents_of(p, q, cap)
        assert _kernel.conv_set(p, q, cap) == expected
        assert _kernel.chain_set(p, q, cap) == expected

    @pytest.mark.parametrize("walk, other", [("chain_set", "conv_set"),
                                             ("conv_set", "chain_set")])
    def test_reaches_neither_the_other_nor_real(self, monkeypatch, walk, other):
        # the other walk, real's recurrence and floor, and the code of
        # (iii)-(v) made to raise
        expected = {(p, q, cap): _convergents_of(p, q, cap)
                    for p, q in self.alphas(30) for cap in CHAIN_CAPS}
        for name in (other, "_first_hit", "_best_hits", "_near_hits",
                     "_tangent_neighbor_den", "witness_flag", "witness_set"):
            monkeypatch.setattr(_kernel, name, _refuse)
        for name in ("convergent_pairs", "floor_ratio"):
            monkeypatch.setattr(real, name, _refuse)
        monkeypatch.setattr(real.RealNumber, "convergent_pairs", _refuse)
        for (p, q, cap), found in expected.items():
            assert getattr(_kernel, walk)(p, q, cap) == found, (walk, p, q, cap)


class _Refused(Exception):
    pass


def _refuse(*args):
    raise _Refused("reached the other statement's search")


def _holds_on_pairs(flag, make_set, oracle):
    # the flag on every pair of _pairs(8, 8), and the set on the same xs
    verdicts: dict[tuple[int, int], dict[tuple[int, int], bool]] = {}
    for a, b, p, q in _pairs(8, 8):
        held = oracle(F(a, b), F(p, q))
        assert flag(a, b, p, q) == held, (a, b, p, q)
        verdicts.setdefault((p, q), {})[a, b] = held
    for (p, q), by_x in verdicts.items():
        found = make_set(p, q, 8)
        assert {x for x in by_x if x in found} == {x for x, held in by_x.items() if held}, \
            (p, q)


class TestIndependence:
    """(iii) and (iv) at a rational share no code: each statement's flag and
    set still decide right with the other statement's generator and search,
    and (i)'s and (ii)'s kernels, made to raise, and each reaches its own."""

    @pytest.fixture(autouse=True)
    def refuse_i_and_ii(self, monkeypatch):
        for name in ("conv_set", "chain_set"):
            monkeypatch.setattr(_kernel, name, _refuse)

    def test_iv_reaches_no_residue_search(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_first_hit", _refuse)
        with pytest.raises(_Refused):
            _kernel.best_set(2, 5, 3)
        with pytest.raises(_Refused):
            _kernel.best_flag(1, 2, 2, 5)
        monkeypatch.setattr(_kernel, "_best_hits", _refuse)
        _holds_on_pairs(_kernel.near_flag, _kernel.near_set, reference.nearby)

    def test_iii_reaches_no_descent(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_near_hits", _refuse)
        with pytest.raises(_Refused):
            _kernel.near_set(2, 5, 3)
        with pytest.raises(_Refused):
            _kernel.near_flag(1, 2, 2, 5)
        _holds_on_pairs(_kernel.best_flag, _kernel.best_set, reference.best_approx)


class TestSizes:
    def test_pure_has_no_size_limit(self):
        big = 1 << 40
        assert isinstance(_kernel.best_flag(1, 2, big + 1, 2 * big), bool)
        assert isinstance(_kernel.near_flag(big - 1, big, 1, 3), bool)

    def test_far_x_exits_at_once(self):
        # the nearer candidate at d = 1 already beats x, so the flags return
        # there; a scan that ran on to d = b would not end
        assert _kernel.best_flag(1, 10**12, 1, 10**9 + 7) is False
        assert _kernel.near_flag(1, 10**12, 1, 10**9 + 7) is False

    def test_fibonacci_far_beyond_any_scan(self):
        # F_201/F_200 = [1; 1, 1, ...]: its convergents are F_(n+1)/F_n, and
        # the mediant of two consecutive ones is the next convergent, so the
        # mediant that skips one is not a best approximation
        fib = [0, 1]
        while len(fib) <= 201:
            fib.append(fib[-1] + fib[-2])
        p, q = fib[201], fib[200]
        assert _kernel.best_flag(fib[101], fib[100], p, q) is True
        assert _kernel.best_flag(fib[99] + fib[101], fib[98] + fib[100], p, q) is False
        assert gcd(fib[101] + 2, fib[100]) == 1
        assert _kernel.best_flag(fib[101] + 2, fib[100], p, q) is False
        assert _kernel.near_flag(fib[101], fib[100], p, q) is True
        assert _kernel.near_flag(fib[99] + fib[101], fib[98] + fib[100], p, q) is False
        assert _kernel.near_flag(fib[101] + 2, fib[100], p, q) is False

    def test_one_search_per_record(self, monkeypatch):
        # the sets to max_den = q at F_201/F_200 = [1; 1, ..., 1, 2], whose
        # records are its convergents F_(n+1)/F_n up to n = 198 and alpha
        # (F_200/F_199 ties with F_199/F_198), at P_100/P_101 = [0; 2, ..., 2]
        # (Pell numbers), whose records are all its convergents P_n/P_(n+1),
        # at 1/10^40, whose records are 0/1 and alpha, and at
        # 10^30/(3*10^30 + 1) = [0; 3, 10^30], whose records 0/1, 1/3 and
        # alpha lie around a run of 10^30 nodes, which the descent must cross
        # in one step after the record 1/3 has lowered rx.  best_set runs its
        # generator once and makes at most one residue search more than it
        # has records, so a threshold that failed to fall fails here rather
        # than hang.  near_set runs one descent, which yields each record once
        # in order of d and takes at most one step (one isqrt) more: after a
        # hit just before a crossing it goes on from the hit, not its run
        fib, pell = [0, 1], [0, 1]
        while len(fib) <= 201:
            fib.append(fib[-1] + fib[-2])
            pell.append(2 * pell[-1] + pell[-2])
        cases = [(fib[201], fib[200],
                  {(fib[n + 1], fib[n]) for n in range(2, 199)} | {(fib[201], fib[200])}),
                 (pell[100], pell[101], {(pell[n], pell[n + 1]) for n in range(101)}),
                 (1, 10**40, {(0, 1), (1, 10**40)}),
                 (10**30, 3 * 10**30 + 1, {(0, 1), (1, 3), (10**30, 3 * 10**30 + 1)})]
        near_hits = _kernel._near_hits
        for p, q, records in cases:
            bounds = {"_first_hit": len(records) + 1, "isqrt": len(records) + 1,
                      "_best_hits": 1, "_near_hits": 1}
            calls = dict.fromkeys(bounds, 0)
            yields: list[tuple[int, int]] = []

            def counted(name, search):
                def call(*args):
                    calls[name] += 1
                    if calls[name] > bounds[name]:
                        raise AssertionError(f"{name} called past its bound at {p}/{q}")
                    return search(*args)
                return call

            def descent(*args):
                for hit in near_hits(*args):
                    yields.append(hit)
                    if len(yields) > len(records):
                        raise AssertionError(f"the descent yielded past the records at {p}/{q}")
                    yield hit

            with monkeypatch.context() as patch:
                for name in ("_first_hit", "isqrt", "_best_hits"):
                    patch.setattr(_kernel, name, counted(name, getattr(_kernel, name)))
                patch.setattr(_kernel, "_near_hits", counted("_near_hits", descent))
                assert _kernel.best_set(p, q, q) == records, (p, q)
                assert _kernel.near_set(p, q, q) == records, (p, q)
            assert calls["_best_hits"] == calls["_near_hits"] == 1, (p, q)
            assert yields == sorted(records, key=lambda hit: hit[1]), (p, q)

    def test_alpha_against_itself(self):
        # x = alpha = [0; 3, 10^6], [0; 3, 10^30] and [0; 10^40]: a scan over
        # d <= b = q could not finish, and the descent makes one run per
        # partial quotient
        for p, q in ((10**6, 3 * 10**6 + 1), (10**30, 3 * 10**30 + 1), (1, 10**40)):
            assert _kernel.near_flag(p, q, p, q) is True
        x = F(10**7, 3 * 10**7 + 1)
        assert is_nearby(x, x) is True

    def test_backend_name(self):
        assert _kernel.backend_name() == "pure"


def set_from_oracle(oracle):
    """A set kernel (p, q, max_den) from a per-pair reference oracle: the
    pairs (a, b), b <= max_den, a within two of b*p/q, that it holds."""
    def make(p, q, max_den):
        return {(a, b) for b in range(1, max_den + 1)
                for a in range(b * p // q - 1, b * p // q + 3)
                if gcd(a, b) == 1 and oracle(F(a, b), F(p, q))}
    return make


def image_mismatches(make, p, q, max_den, sign, n):
    """The pairs with b >= 2 on which the set at (sign*p + n*q, q) and the
    image (sign*a + n*b, b) of the set at (p, q) differ: empty when the set
    kernel make is equivariant under t -> sign*t + n, as verify._row's
    lemma says each statement is."""
    image = {(sign * a + n * b, b) for a, b in make(p, q, max_den) if b >= 2}
    return image ^ {(a, b) for a, b in make(sign * p + n * q, q, max_den) if b >= 2}


@st.composite
def reduced_alphas(draw):
    """A reduced p/q, q up to 10^12, p in [-3q, 3q]."""
    q = draw(st.one_of(st.integers(1, 60), st.integers(1, 10**12)))
    p = draw(st.integers(-3 * q, 3 * q))
    g = gcd(p, q)
    return p // g, q // g


ORBIT_MAPS = {"sign": st.sampled_from((1, -1)),
              "n": st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))}


class TestOrbitEquivariance:
    """Each statement's set at +-p + n*q over q is the image
    (a, b) -> (+-a + n*b, b) of its set at p/q, for b >= 2 (verify._row's
    lemma): kernel by kernel and for the unpruned references.  The sweep
    computes one row per orbit, so a kernel that breaks the symmetry at an
    alpha it does not compute there must fail here."""

    @pytest.mark.parametrize("name", ["conv_set", "chain_set", "best_set", "near_set",
                                      "witness_set"])
    @settings(max_examples=300, deadline=None)
    @given(alpha=reduced_alphas(), max_den=st.one_of(st.integers(1, 60), st.integers(1, 10**6)),
           **ORBIT_MAPS)
    def test_kernel_sets(self, name, alpha, max_den, sign, n):
        assert image_mismatches(getattr(_kernel, name), *alpha, max_den, sign, n) == set()

    @pytest.mark.parametrize("make", [
        set_from_oracle(reference.best_approx), set_from_oracle(reference.nearby),
        reference.witness_set], ids=["best_approx", "nearby", "witness_set"])
    @settings(max_examples=100, deadline=None)
    @given(alpha=reduced_alphas(), max_den=st.integers(1, 12), **ORBIT_MAPS)
    def test_references(self, make, alpha, max_den, sign, n):
        assert image_mismatches(make, *alpha, max_den, sign, n) == set()
