"""Best-approximation oracle, nearby predicate, witness search, and the
five-way equivalence checker with sweep reports.

The five statements about a reduced fraction x and a real alpha:

  (i)   x is a convergent of alpha;
  (ii)  the Ford circle at x belongs to the continued fraction chain of alpha;
  (iii) x is a best approximation of the second kind to alpha;
  (iv)  the Ford circle at x is nearby to alpha;
  (v)   some Ford circle tangent to the one at x, with strictly smaller
        radius, has alpha inside the open interval between the base points.

For non-integer x the five are equivalent; integer x satisfies (i) without
(iii) whenever alpha lands in the upper half of the unit interval around it,
so reports flag integers and skip the equivalence claim for them.

(i) walks the convergent recurrence.  (ii) descends the Ford packing's
mediants a run at a time: one exact floor per partial quotient, whose
exactness ends the chain, and no sign test.
(iii) compares linear forms and (iv) horocircle radii, each by its own
O(log q) search at a rational: a first-hit residue search for (iii), a
Stern-Brocot descent on the squared forms for (iv).  Their verdicts at a
stream are those at its Farey proxy, a convergent of denominator > 2*b.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction

from . import _kernel
from .cf import Convergent, cf_of_rational, convergents
from .rational import reduced_fractions_in
from .real import (
    EQ,
    LT,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_fraction,
    _as_int,
    as_real,
    compare_real,
    floor_ratio_exact,
)


class TheoremUReport(namedtuple("TheoremUReport", "x alpha is_integer stmt_i stmt_ii stmt_iii "
                                                 "stmt_iv stmt_v witness consistent")):
    """theorem_u_check's report: the Fraction x, alpha's label, whether x is
    an integer, the verdicts (i)-(v), the statement-(v) witness Fraction or
    None, and whether the verdicts agree."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """Report with the frozen field names of the machine interface."""
        return {
            "x": f"{self.x.numerator}/{self.x.denominator}",
            "alpha": self.alpha,
            "isInteger": self.is_integer,
            "stmt_i": self.stmt_i,
            "stmt_ii": self.stmt_ii,
            "stmt_iii": self.stmt_iii,
            "stmt_iv": self.stmt_iv,
            "stmt_v": self.stmt_v,
            "witness": None if self.witness is None else
            f"{self.witness.numerator}/{self.witness.denominator}",
            "consistent": self.consistent,
        }


def cf_chain(alpha: RealNumber | RationalLike, count: int) -> list[FordCircle]:
    """The first count circles of the continued fraction chain of alpha.

    Consecutive circles are tangent because consecutive convergents are
    unimodular; radii never increase and decrease strictly from index 1 on.
    """
    from .geometry import FordCircle  # only here: a check never loads geometry

    return [FordCircle(c.value) for c in convergents(as_real(alpha), count)]


def _convergents_upto(alpha: RealNumber, max_den: int) -> set[tuple[int, int]]:
    """Statement (i) up to a cap: the convergent pairs (A_n, B_n) with B_n <=
    max_den; denominators never decrease, so the walk stops past the cap."""
    found = set()
    for pair in alpha.convergent_pairs():
        if pair[1] > max_den:
            break
        found.add(pair)
    return found


def _chain_upto(alpha: RealNumber, max_den: int) -> set[tuple[int, int]]:
    """Statement (ii) up to a cap: the bases (a, b) with b <= max_den of the
    chain of alpha, by a mediant descent of the Ford packing, a run at a time.

    Between tangent circles at u/v and s/t, one circle touches both and the
    axis, at the mediant (Ford, 1938); the chain circles are where the
    descent towards alpha turns (Series, 1985).  Keep a moving end u/v, a
    staying end s/t and the side e, +1 when s/t < alpha and -1 when above.
    While s/t stays, the mediants M_j = (u + j*s)/(v + j*t) move
    monotonically from u/v towards it: M_j is on u/v's side of alpha for
    j < R = (e*u - e*v*alpha)/(e*t*alpha - e*s) and is alpha at j = R.  So
    one exact floor f = floor(R) ends the run at M_f, where the descent
    turns, and the floor is exact iff alpha == M_f, which ends the chain.
    Otherwise alpha lies strictly between M_f and M_(f+1), the mediant of
    M_f and s/t, so the next run moves from s/t towards M_f, which is on
    the other side: (u/v, s/t, e) becomes (s/t, M_f, -e), and that run's
    first mediant is M_(f+1), already known to lie on the side it starts
    from.  The descent starts at u/v = 1/0, s/t = floor(alpha)/1, whose
    exactness says that alpha is an integer, its own chain, and stops at the
    first M_f whose denominator passes the cap.  So a partial quotient costs
    one exact floor and no sign test.
    """
    n, exact = floor_ratio_exact(alpha, 1, 0, 0, 1)
    found = {(n, 1)}
    u, v, s, t, e = 1, 0, n, 1, 1
    while not exact:
        f, exact = floor_ratio_exact(alpha, -e * v, e * u, e * t, -e * s)
        m, k = u + f * s, v + f * t
        if k > max_den:
            break
        found.add((m, k))
        u, v, s, t, e = s, t, m, k, -e
    return found


def _farey_proxy(alpha: RealNumber, n: int) -> tuple[int, int]:
    """A reduced p/q in alpha's cell of the Farey subdivision of order n, for
    n >= 1: every linear form v*t - u in integers with 1 <= |v| <= n has the
    same nonzero sign at p/q as at alpha.

    A rational alpha is its own proxy.  For a stream it is the first
    convergent A_k/B_k with B_k > n, on an uncapped walk; k >= 1 as B_0 = 1.
    The lemma: alpha lies strictly between A_(k-1)/B_(k-1) and A_k/B_k,
    unimodular neighbours, and every fraction strictly between those has a
    denominator >= B_(k-1) + B_k > n (Ford, 1938).  The zero u/v of the form
    has denominator <= n, so it is neither inside nor A_k/B_k, and both
    alpha and the proxy lie on one side of it.

    Hence (iii) and (iv): |d*alpha - c| - |b*alpha - a| has the sign of
    ((d - b)*alpha - (c - a))*((d + b)*alpha - (c + a)), and for d <= b and
    c/d != a/b each factor is such a form with n = 2*b, or a nonzero
    constant at d = b.  Every comparison, and so each verdict, is the same
    at alpha and at the proxy of order 2*b, where none ties.
    """
    if isinstance(alpha, ExactReal):
        return alpha.value.numerator, alpha.value.denominator
    for pair in alpha.convergent_pairs():
        if pair[1] > n:
            return pair
    raise ValueError("coefficient stream ended; finite expansions must be ExactReal")


def is_best_approx_2nd(x: RationalLike, alpha: RealNumber | RationalLike) -> bool:
    """Whether x = a/b is a best approximation of the second kind to alpha.

    Requires |b*alpha - a| < |d*alpha - c| for every reduced c/d != a/b with
    d <= b; any tie is a violation.  The linear-form route: the integer
    kernel's residue search at the Farey proxy of order 2*b, which compares
    the forms themselves, never radii.
    """
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    return _kernel.best_flag(a, b, *_farey_proxy(as_real(alpha), 2 * b))


def is_nearby(x: RationalLike, alpha: RealNumber | RationalLike) -> bool:
    """Whether the Ford circle at x = a/b is nearby to alpha.

    Requires every other Ford circle with radius >= rad(C_x), equivalently
    with denominator d <= b, to carry a strictly larger tangent-horocircle
    radius (d*alpha - c)^2/2 at base point alpha.  The radii route: the
    integer kernel's descent on the squared forms at the Farey proxy of
    order 2*b, independently of the linear-form route above.
    """
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    return _kernel.near_flag(a, b, *_farey_proxy(as_real(alpha), 2 * b))


def statement_v_witness(x: RationalLike, alpha: RealNumber | RationalLike) -> Fraction | None:
    """The deterministic statement-(v) witness, or None when none exists.

    For alpha == x any tangent neighbor with larger denominator qualifies;
    the minimal-denominator one on the right is returned.  Otherwise the
    minimal-denominator tangent neighbor y on alpha's side is the farthest
    tangent point of its family from x, so a witness exists iff alpha lies
    strictly inside (x, y), and then y itself is returned.
    """
    x = _as_fraction(x)
    alpha = as_real(alpha)
    cmp = compare_real(alpha, x)
    side = -1 if cmp == LT else 1
    a, b = x.numerator, x.denominator
    d = _kernel._tangent_neighbor_den(a, b, side)
    y = Fraction((side + d * a) // b, d)  # the neighbor with c*b - d*a = side
    return y if cmp == EQ or compare_real(alpha, y) == -side else None


def theorem_u_check(x: RationalLike, alpha: RealNumber | RationalLike) -> TheoremUReport:
    """Evaluate all five statements independently and report consistency.

    For non-integer x, consistent means all five agree; integer x is flagged
    and only the definitional identity between (i) and (ii) is asserted.
    """
    x = _as_fraction(x)
    alpha = as_real(alpha)
    stmt_i = (x.numerator, x.denominator) in _convergents_upto(alpha, x.denominator)
    stmt_ii = (x.numerator, x.denominator) in _chain_upto(alpha, x.denominator)
    stmt_iii = is_best_approx_2nd(x, alpha)
    stmt_iv = is_nearby(x, alpha)
    witness = statement_v_witness(x, alpha)
    stmt_v = witness is not None
    integer = x.denominator == 1
    consistent = (stmt_i == stmt_ii) and (
        integer or stmt_i == stmt_iii == stmt_iv == stmt_v
    )
    return TheoremUReport(
        x=x,
        alpha=alpha.describe(),
        is_integer=integer,
        stmt_i=stmt_i,
        stmt_ii=stmt_ii,
        stmt_iii=stmt_iii,
        stmt_iv=stmt_iv,
        stmt_v=stmt_v,
        witness=witness,
        consistent=consistent,
    )


def penultimate_pair(alpha: RationalLike) -> tuple[Convergent, Convergent, int, int]:
    """The last two convergents of a rational plus the difference pair.

    For alpha with convergents A_0/B_0 ... A_N/B_N (N >= 1), returns
    (A_{N-1}/B_{N-1}, A_N/B_N, u, v) with u = A_N - A_{N-1} and
    v = B_N - B_{N-1}.  The fraction u/v is reduced, alpha lies strictly
    between A_{N-1}/B_{N-1} and u/v, and v < B_N; for N >= 2 moreover
    B_{N-1} < v.
    """
    cf = cf_of_rational(alpha)
    if cf.length < 2:
        raise ValueError("expansion has no penultimate convergent")
    convs = convergents(cf, cf.length)
    prev, last = convs[-2], convs[-1]
    return prev, last, last.num - prev.num, last.den - prev.den


def _count_xs(lo: Fraction, hi: Fraction, max_den: int) -> int:
    """The number of reduced a/b with 1 < b <= max_den strictly between lo
    and hi, without listing them.

    At each b the numerators are the a in (A, B] with A = floor(lo*b) and
    B = ceil(hi*b) - 1, and by inclusion-exclusion over the primes of b
    those coprime to b number the sum over d | rad(b) of
    mu(d) * (B//d - A//d).  The primes come from one sieve that keeps a
    prime factor of every m <= max_den (the largest: each prime overwrites
    its multiples in turn): O(max_den log log max_den) steps and a list of
    max_den + 1 entries, then 2^omega(b) terms at each b.
    """
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    factor = [0] * (max_den + 1)
    for m in range(2, max_den + 1):
        if not factor[m]:
            factor[m::m] = [m] * (max_den // m)
    total = 0
    for b in range(2, max_den + 1):
        low, high = ln * b // ld, -(-hn * b // hd) - 1
        terms, m = [(1, 1)], b
        while m > 1:
            f = factor[m]
            terms += [(d * f, -mu) for d, mu in terms]
            while m % f == 0:
                m //= f
        total += sum(mu * (high // d - low // d) for d, mu in terms)
    return total


def verify_sweep(den_max_x: int, den_max_alpha: int,
                 window: tuple[RationalLike, RationalLike]) -> dict:
    """Check the five-way equivalence over a rational grid and report.

    Runs the equivalence over every non-integer reduced x with denominator
    <= den_max_x strictly inside (lo - 1, hi + 1) against every reduced alpha
    with denominator <= den_max_alpha in [lo, hi).  Statement (i) walks the
    convergent recurrence and (ii) the Ford packing, both capped at den_max_x.

    Statements (iii), (iv) and (v) for a whole alpha come from the kernel's
    candidate sets, each statement's records from its own generator: one
    O(log q) residue search per record for (iii), one O(log q) descent for
    all of (iv)'s, and an O(sqrt(q)) hyperbola split for (v).  A pair
    outside all five statement sets is false on all five, hence consistent,
    so it is counted without being visited.  The sets can differ at b = 1
    only on the integers n = floor(alpha) and n + 1, which are never
    visited; with those two set aside, five equal sets hold no
    inconsistency, so the alpha costs one comparison.  Otherwise the pairs
    inside, all reduced, are visited in (b, a) order, the order of the x
    enumeration.  The xs are counted by inclusion-exclusion (_count_xs),
    never listed.  With X = den_max_x and Y = den_max_alpha the cost is
    O(|alphas| * sqrt(Y) + X log log X + sum over b <= X of 2^omega(b))
    time, plus the O(log Y) sets, and O(X) memory for the count's sieve.
    The tests hold the sets against the references in tests/reference.py.
    """
    lo, hi = _as_fraction(window[0]), _as_fraction(window[1])
    if lo >= hi:
        raise ValueError("window must satisfy lo < hi")
    den_max_x, den_max_alpha = _as_int(den_max_x), _as_int(den_max_alpha)
    if den_max_x < 1 or den_max_alpha < 1:
        raise ValueError("denominator caps must be >= 1")
    started = time.perf_counter()

    (ln, ld), (hn, hd) = (lo - 1).as_integer_ratio(), (hi + 1).as_integer_ratio()
    alphas = list(reduced_fractions_in(lo, hi, den_max_alpha, include_hi=False))

    inconsistencies: list[dict] = []
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        real = ExactReal(alpha)
        conv_set = _convergents_upto(real, den_max_x)
        chain_set = _chain_upto(real, den_max_x)
        best_set = _kernel.best_set(p, q, den_max_x)
        near_set = _kernel.near_set(p, q, den_max_x)
        witness_set = _kernel.witness_set(p, q, den_max_x)
        integers = {(p // q, 1), (p // q + 1, 1)}
        for found in (conv_set, chain_set, best_set, near_set, witness_set):
            found.difference_update(integers)
        if conv_set == chain_set == best_set == near_set == witness_set:
            continue
        candidates = conv_set | chain_set | best_set | near_set | witness_set
        for b, a in sorted((b, a) for a, b in candidates
                           if 1 < b <= den_max_x and ln * b < a * ld and a * hd < hn * b):
            x = (a, b)
            stmts = (x in conv_set, x in chain_set,
                     x in best_set, x in near_set, x in witness_set)
            if any(stmts) and not all(stmts):
                inconsistencies.append({
                    "x": f"{x[0]}/{x[1]}",
                    "alpha": f"{p}/{q}",
                    **dict(zip(("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv",
                                "stmt_v"), stmts)),
                })

    return {
        "params": {
            "maxDenX": den_max_x,
            "maxDenAlpha": den_max_alpha,
            "window": f"{lo}..{hi}",
        },
        "totalChecked": len(alphas) * _count_xs(lo - 1, hi + 1, den_max_x),
        "inconsistencies": inconsistencies,
        "elapsed": time.perf_counter() - started,
    }
