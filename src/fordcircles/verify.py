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
mediants a run at a time: one sign test and at most one exact floor and one
more test per partial quotient.
(iii) compares linear forms and (iv) horocircle radii, each by its own
O(log q) search at a rational: a first-hit residue search for (iii), a
Stern-Brocot descent on the squared forms for (iv).  Their verdicts at a
stream are those at its Farey proxy, a convergent of denominator > 2*b.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel
from .cf import Convergent, cf_of_rational, convergents
from .geometry import FordCircle
from .rational import _reduced_runs, reduced_fractions_in
from .real import (
    EQ,
    GT,
    LT,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_fraction,
    _as_int,
    as_real,
    compare_real,
    floor_ratio,
    floor_scaled,
    sign_of_quadratic,
)


@dataclass(frozen=True)
class TheoremUReport:
    x: Fraction
    alpha: str
    is_integer: bool
    stmt_i: bool
    stmt_ii: bool
    stmt_iii: bool
    stmt_iv: bool
    stmt_v: bool
    witness: Fraction | None
    consistent: bool

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

    Between tangent circles at a/b and c/d, one circle touches both and the
    axis, at the mediant (Ford, 1938); the chain circles are where the
    descent towards alpha turns (Series, 1985).  While the end s/t on
    alpha's side stays, the mediants M_j = (u + j*s)/(v + j*t) move
    monotonically from the other end u/v towards it, so alpha stays beyond
    M_j exactly for j < (v*alpha - u)/(s - t*alpha), both forms negated when
    s/t is below: one exact floor f ends the run.  Taken a mediant at a
    time, the descent keeps s/t past each M_j up to M_f, stops at
    alpha == M_f, else keeps M_f and turns at M_(f+1), and stops after the
    first step whose denominator passes the cap; that step still decides
    its turn.  So a run costs one sign test at M_1, then at most one floor
    and one sign test (alpha == M_f, for f >= 2 as M_1 was the probe).
    """
    n = floor_scaled(alpha, 1)
    found = {(n, 1)}
    if sign_of_quadratic(0, 1, -n, alpha) == EQ:  # an integer is its own chain
        return found
    a, b, c, d = n, 1, n + 1, 1  # the tangent ends a/b < alpha < c/d
    while True:
        m, k = a + c, b + d
        side = sign_of_quadratic(0, k, -m, alpha)
        if side == EQ:
            if k <= max_den:
                found.add((m, k))  # alpha = m/k ends the chain
            return found
        u, v, s, t = (a, b, c, d) if side == GT else (c, d, a, b)
        found.add((s, t))  # the end that stays
        cap = (max_den - v) // t + 1  # the first j with v + j*t > max_den
        if cap == 1:
            return found
        f = floor_ratio(alpha, side * v, -side * u, -side * t, side * s)
        if f >= cap:
            return found
        m, k = u + f * s, v + f * t
        found.add((m, k))
        if f + 1 == cap or f >= 2 and sign_of_quadratic(0, k, -m, alpha) == EQ:
            return found
        a, b, c, d = (m, k, m + s, k + t) if side == GT else (m + s, k + t, m, k)


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
    all of (iv)'s, and O(min(den_max_x, q)) integer work for (v).  A pair
    outside all five statement sets is false on all five, hence consistent,
    so it is counted without being visited; the pairs inside are visited in
    the order of the x enumeration.  With X = den_max_x and Y = den_max_alpha
    the cost is O(|alphas| * min(X, Y) + |xs|), from (v).
    The tests hold the sets against the references in tests/reference.py.
    """
    lo, hi = _as_fraction(window[0]), _as_fraction(window[1])
    if lo >= hi:
        raise ValueError("window must satisfy lo < hi")
    den_max_x, den_max_alpha = _as_int(den_max_x), _as_int(den_max_alpha)
    if den_max_x < 1 or den_max_alpha < 1:
        raise ValueError("denominator caps must be >= 1")
    started = time.perf_counter()

    xs = [(a, b) for b, run in _reduced_runs(lo - 1, hi + 1, den_max_x, False, False)
          if b > 1 for a in run]
    alphas = list(reduced_fractions_in(lo, hi, den_max_alpha, include_hi=False))
    position = {x: i for i, x in enumerate(xs)}

    inconsistencies: list[dict] = []
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        real = ExactReal(alpha)
        conv_set = _convergents_upto(real, den_max_x)
        chain_set = _chain_upto(real, den_max_x)
        best_set = _kernel.best_set(p, q, den_max_x)
        near_set = _kernel.near_set(p, q, den_max_x)
        witness_set = _kernel.witness_set(p, q, den_max_x)
        candidates = conv_set | chain_set | best_set | near_set | witness_set
        for i in sorted(position[x] for x in candidates if x in position):
            x = xs[i]
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
        "totalChecked": len(alphas) * len(xs),
        "inconsistencies": inconsistencies,
        "elapsed": time.perf_counter() - started,
    }
