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

Statements (iii) and (iv) are computed along genuinely different routes
(linear forms versus horocircle radii), which makes their pointwise agreement
a meaningful cross-check rather than a tautology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator

from ._kernel import _pure
from .cf import Convergent, cf_of_rational, cf_of_real, convergents
from .geometry import FordCircle, compare_radii, ford_circle, tangent_horocircle_radius
from .rational import reduced_fractions_in
from .real import (
    EQ,
    GT,
    ExactReal,
    RationalLike,
    RealNumber,
    _as_fraction,
    _as_int,
    as_real,
    compare_linear_forms,
    compare_real,
    convergent_pairs,
    floor_scaled,
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


def _chain_iter(alpha: RealNumber | RationalLike) -> Iterator[FordCircle]:
    # unbounded for a stream: the consumer stops the walk (a count or a radius)
    for num, den in convergent_pairs(cf_of_real(alpha).coefficients()):
        yield FordCircle(Fraction(num, den))


def cf_chain(alpha: RealNumber | RationalLike, count: int) -> list[FordCircle]:
    """The first count circles of the continued fraction chain of alpha.

    Consecutive circles are tangent because consecutive convergents are
    unimodular; radii never increase and decrease strictly from index 1 on.
    """
    count = _as_int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    out = list(islice(_chain_iter(alpha), count))
    if len(out) < count:
        raise ValueError("expansion exhausted")
    return out


def _is_convergent(x: Fraction, alpha: RealNumber) -> bool:
    a, b = x.numerator, x.denominator
    for num, den in convergent_pairs(cf_of_real(alpha).coefficients()):
        # denominators never decrease, so once past b stop
        if den > b:
            return False
        if num == a and den == b:
            return True
    return False


def _is_chain_member(x: Fraction, alpha: RealNumber) -> bool:
    target = ford_circle(x)
    for n, circle in enumerate(_chain_iter(alpha)):
        if circle == target:
            return True
        # radii decrease (strictly from index 1), so once below rad(C_x) stop
        if n >= 1 and circle.radius < target.radius:
            return False
    return False


def _rivals(x: Fraction, alpha: RealNumber) -> Iterator[tuple[int, int]]:
    """The reduced rivals (c, d) of x = a/b at alpha: every c/d != x with
    d <= b that could match or beat x.

    By the pruning lemma in _kernel/_pure.py only the two integers nearest
    d*alpha matter at each d; the tests check the lemma, on rational alphas
    through the kernels, against an unpruned reference.
    """
    a, b = x.numerator, x.denominator
    for d in range(1, b + 1):
        m = floor_scaled(alpha, d)
        for c in (m, m + 1):
            # the gcd only skips work (see the lemma): a comparison costs more
            if (c != a or d != b) and gcd(c, d) == 1:
                yield c, d


def is_best_approx_2nd(x: RationalLike, alpha: RealNumber | RationalLike) -> bool:
    """Whether x = a/b is a best approximation of the second kind to alpha.

    Requires |b*alpha - a| < |d*alpha - c| for every reduced c/d != a/b with
    d <= b; any tie is a violation.  The linear-form route: comparisons go
    through the forms themselves, never through radii.  A rational alpha
    goes to the integer kernel; any other alpha compares against the pruned
    rivals of _rivals.
    """
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return _pure.best_flag(a, b, alpha.value.numerator, alpha.value.denominator)
    return all(compare_linear_forms(d, c, b, a, alpha) == GT
               for c, d in _rivals(x, alpha))


def is_nearby(x: RationalLike, alpha: RealNumber | RationalLike) -> bool:
    """Whether the Ford circle at x = a/b is nearby to alpha.

    Requires every other Ford circle with radius >= rad(C_x), equivalently
    with denominator d <= b, to carry a strictly larger tangent-horocircle
    radius at base point alpha.  The radii route: comparisons go through
    horocircle radii (squared forms), independently of the linear-form route
    above.  A rational alpha goes to the integer kernel; any other alpha
    compares against the pruned rivals of _rivals, since circles farther
    from d*alpha have strictly larger radii.
    """
    x = _as_fraction(x)
    a, b = x.numerator, x.denominator
    alpha = as_real(alpha)
    if isinstance(alpha, ExactReal):
        return _pure.near_flag(a, b, alpha.value.numerator, alpha.value.denominator)
    rx = tangent_horocircle_radius(alpha, x)
    return all(compare_radii(tangent_horocircle_radius(alpha, Fraction(c, d)), rx) == GT
               for c, d in _rivals(x, alpha))


def _min_den_tangent_neighbor(x: Fraction, side: int) -> Fraction:
    """The tangent neighbor of x = a/b on the given side (+1 right, -1 left)
    with the smallest denominator exceeding b.

    Neighbors on one side are (c0 + k*a)/(d0 + k*b) with c*b - d*a = side;
    denominators on that side form one residue class mod b, so the minimal
    one above b lies in (b, 2b].  For b = 1 every denominator works and the
    minimal one above 1 is 2.
    """
    a, b = x.numerator, x.denominator
    if b == 1:
        d = 2
    else:
        d = (-side * pow(a, -1, b)) % b + b
    c = (side + d * a) // b
    return Fraction(c, d)


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
    if cmp == EQ:
        return _min_den_tangent_neighbor(x, +1)
    side = 1 if cmp == GT else -1
    y = _min_den_tangent_neighbor(x, side)
    return y if compare_real(alpha, y) == -side else None


def theorem_u_check(x: RationalLike, alpha: RealNumber | RationalLike) -> TheoremUReport:
    """Evaluate all five statements independently and report consistency.

    For non-integer x, consistent means all five agree; integer x is flagged
    and only the definitional identity between (i) and (ii) is asserted.
    """
    x = _as_fraction(x)
    alpha = as_real(alpha)
    stmt_i = _is_convergent(x, alpha)
    stmt_ii = _is_chain_member(x, alpha)
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
    with denominator <= den_max_alpha in [lo, hi).  Statements (i) and (ii)
    come from the cf engine and the chain, precomputed per alpha.

    Statements (iii), (iv) and (v) for a whole alpha come from the kernel's
    candidate sets, O(den_max_x) integer work each.  A pair outside all five
    statement sets is false on all five, hence consistent, so it is counted
    without being visited; the pairs inside are visited in the order of the
    x enumeration.  Cost: O(|alphas| * den_max_x + |xs|).  The per-pair
    predicates in _kernel/_pure.py are the reference the tests hold this
    against.
    """
    lo, hi = _as_fraction(window[0]), _as_fraction(window[1])
    if lo >= hi:
        raise ValueError("window must satisfy lo < hi")
    if den_max_x < 1 or den_max_alpha < 1:
        raise ValueError("denominator caps must be >= 1")
    started = time.perf_counter()

    xs = [
        (x.numerator, x.denominator)
        for x in reduced_fractions_in(lo - 1, hi + 1, den_max_x,
                                      include_lo=False, include_hi=False)
        if x.denominator > 1
    ]
    alphas = list(reduced_fractions_in(lo, hi, den_max_alpha, include_hi=False))
    position = {x: i for i, x in enumerate(xs)}

    inconsistencies: list[dict] = []
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        conv_set = set(convergent_pairs(cf_of_rational(alpha).coefficients()))
        chain_set = {(c.base.numerator, c.base.denominator) for c in _chain_iter(alpha)}
        best_set = _pure.best_set(p, q, den_max_x)
        near_set = _pure.near_set(p, q, den_max_x)
        witness_set = _pure.witness_set(p, q, den_max_x)
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
