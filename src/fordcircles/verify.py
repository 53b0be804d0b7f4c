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
mediants a run at a time: one floor per partial quotient and no sign test.
At a rational alpha a check and the sweep take both from their integer
kernels, _kernel.conv_set and chain_set; the walks here serve streams.
(iii) compares linear forms and (iv) horocircle radii, each by its own
O(log q) search at a rational: a first-hit residue search for (iii), a
Stern-Brocot descent on the squared forms for (iv).  Their verdicts at a
stream are those at its Farey proxy, a convergent of denominator > 2*b.
theorem_u_check takes that proxy once and hands it to both searches: it is
an input fixed by (alpha, 2*b), as x is, and holds no verdict, so each of
(iii) and (iv) is still decided by its own kernel.

The sweep runs the five kernels once per orbit of alpha under
t -> +-t + n, not once per alpha: those maps fix 1/0 in PGL_2(Z) and carry
every Ford circle to one of the same radius (Ford, "Fractions", Amer.
Math. Monthly 45, 1938), so each statement's verdict at (x, alpha) with a
non-integer x is its verdict at (+-x + n, +-alpha + n).  It counts its x
grid by Moebius inversion over floor sums, in about X^(2/3) steps and
memory for an x cap X, with no list of size X.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from . import _kernel
from .cf import Convergent, cf_of_rational, convergents
from .rational import _reduced_runs
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
    floor_ratio,
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


def _convergents_upto(alpha: RealNumber, max_den: int) -> set[tuple[int, int]]:
    """Statement (i) up to a cap at a stream: the convergent pairs (A_n, B_n)
    with B_n <= max_den; denominators never decrease, so the walk stops past
    the cap.  A rational alpha takes _kernel.conv_set instead."""
    found = set()
    for pair in alpha.convergent_pairs():
        if pair[1] > max_den:
            break
        found.add(pair)
    return found


def _chain_upto(alpha: RealNumber, max_den: int) -> set[tuple[int, int]]:
    """Statement (ii) up to a cap at a stream: the bases (a, b) with b <=
    max_den of the chain of alpha, by a mediant descent of the Ford packing,
    a run at a time.

    Between tangent circles at u/v and s/t, one circle touches both and the
    axis, at the mediant (Ford, 1938); the chain circles are where the
    descent towards alpha turns (Series, 1985).  Keep a moving end u/v and
    a staying end s/t on the other side of alpha.  While s/t stays, the
    mediants M_j = (u + j*s)/(v + j*t) move monotonically from u/v towards
    it, and M_j is on u/v's side of alpha for j < R = (u - v*alpha)/
    (t*alpha - s), a ratio of two forms of one sign.  So one floor
    f = floor(R) ends the run at M_f, where the descent turns; alpha is
    irrational, so it lies strictly between M_f and M_(f+1), the mediant of
    M_f and s/t, and the next run moves from s/t towards M_f, which is on
    the other side: (u/v, s/t) becomes (s/t, M_f), and that run's first
    mediant is M_(f+1), already known to lie on the side it starts from.
    The descent starts at u/v = 1/0, s/t = floor(alpha)/1 and stops at the
    first M_f whose denominator passes the cap.  So a partial quotient
    costs one floor and no sign test.  This is _kernel.chain_set's loop,
    which a rational alpha takes, with floor_ratio in place of divmod.
    """
    n = floor_ratio(alpha, 1, 0, 0, 1)
    found = {(n, 1)}
    u, v, s, t = 1, 0, n, 1
    while True:
        f = floor_ratio(alpha, -v, u, t, -s)
        m, k = u + f * s, v + f * t
        if k > max_den:
            break
        found.add((m, k))
        u, v, s, t = s, t, m, k
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

    (i) walks the convergents to b and (ii) descends the chain to b, each by
    its integer kernel at a rational alpha (conv_set, chain_set) and by its
    walk at a stream; (iii) and (iv) run their own kernels, best_flag and
    near_flag, at one Farey proxy of order 2*b, and (v) finds its witness.
    Sharing the proxy computes no statement from another: it is a rational
    in alpha's cell of the Farey subdivision of order 2*b, fixed by alpha
    and b alone, where each comparison of (iii) and of (iv) has its sign at
    alpha (_farey_proxy's lemma), and it saves one walk of alpha's
    coefficients per check.  A rational is its own proxy.

    For non-integer x, consistent means all five agree; integer x is flagged
    and only the definitional identity between (i) and (ii) is asserted.
    """
    x = _as_fraction(x)
    alpha = as_real(alpha)
    a, b = x.numerator, x.denominator
    p, q = _farey_proxy(alpha, 2 * b)
    rational = isinstance(alpha, ExactReal)
    stmt_i = (a, b) in (_kernel.conv_set(p, q, b) if rational else _convergents_upto(alpha, b))
    stmt_ii = (a, b) in (_kernel.chain_set(p, q, b) if rational else _chain_upto(alpha, b))
    stmt_iii = _kernel.best_flag(a, b, p, q)
    stmt_iv = _kernel.near_flag(a, b, p, q)
    witness = statement_v_witness(x, alpha)
    stmt_v = witness is not None
    integer = b == 1
    consistent = (stmt_i == stmt_ii) and (
        integer or stmt_i == stmt_iii == stmt_iv == stmt_v
    )
    return TheoremUReport(x, alpha.describe(), integer, stmt_i, stmt_ii, stmt_iii,
                          stmt_iv, stmt_v, witness, consistent)


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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum over 0 <= i < n of floor((a*i + b)/m), for n >= 0 and m >= 1,
    in O(log m) steps: the AtCoder Library's floor_sum.

    Python's // floors for either sign, so a = (a//m)*m + a % m takes the
    whole parts (a//m)*n*(n-1)/2 and (b//m)*n out of the sum with no sign
    case, and leaves 0 <= a, b < m.  The sum then counts the lattice
    points (i, j) with 0 <= i < n and 1 <= j <= (a*i + b)/m; counted by
    rows it is the same kind of sum with n' = y // m, m' = a, a' = m and
    b' = y % m, where y = a*n + b, and it is 0 once y < m.  The pair (m, a)
    becomes (a, m mod a) over two steps, as in Euclid's algorithm.
    """
    total = 0
    while True:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a, b = a % m, b % m
        y = a * n + b
        if y < m:
            return total
        n, m, a, b = y // m, a, m, y % m


def _mertens_upto(limit: int) -> list[int]:
    """Mertens' M(v), the sum of mu(k) over 1 <= k <= v, for 0 <= v <= limit,
    from a linear sieve of mu: each composite i*p is struck once, by its
    least prime p, with mu(i*p) = -mu(i) if p does not divide i and 0 if
    it does, when the scan of primes for i stops."""
    mu = [0, 1] + [0] * (limit - 1)
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            composite[i * p] = 1
            if i % p == 0:
                break
            mu[i * p] = -mu[i]
    return list(accumulate(mu))


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by Newton's method in integers from above."""
    c = 1 << -(-n.bit_length() // 3)
    while True:
        d = (2 * c + n // (c * c)) // 3
        if d >= c:
            return c
        c = d


def _count_xs(lo: Fraction, hi: Fraction, max_den: int) -> int:
    """The number of reduced a/b with 1 < b <= max_den strictly between lo
    and hi, without listing them, in about max_den^(2/3) steps and memory.

    By Moebius inversion over d = gcd(a, b) it is the sum over d <= X =
    max_den of mu(d)*G(X // d), less the b = 1 term G(1), where G(n)
    counts every a/b with b <= n, reduced or not, in (lo, hi): at b = d*b'
    the multiples of d in (floor(lo*b), ceil(hi*b) - 1] number
    ceil(hi*b') - 1 - floor(lo*b'), as floor(floor(y)/d) = floor(y/d).  So
    G(n) = -n - F(lo) - F(-hi), with F(y) the floor sum of floor(y*b) over
    1 <= b <= n.
    G(X // d) takes O(sqrt(X)) values, each on a run of d whose mu(d)
    sum to a difference of Mertens' M at values X // k.  M comes from a
    linear sieve up to a limit near X^(2/3) and, above it, from
    M(v) = 1 - sum over 2 <= j <= v of M(v // j), where v // j = X // (k*j)
    is grouped by its value too (Deleglise and Rivat, "Computing the
    summation of the Moebius function", Experimental Mathematics 5, 1996;
    Pawlewicz and Patrascu, "Order statistics in the Farey sequences in
    sublinear time", Algorithmica 55, 2009).  Any limit gives the same
    count; it only balances the sieve against the groups.
    """
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def below(n: int) -> int:  # G(n)
        return -_floor_sum(n, hd, -hn, -hn) - n - _floor_sum(n, ld, ln, ln)

    limit = _icbrt(max_den) ** 2
    small = _mertens_upto(limit)
    # large[k] = M(X // k) for every k with X // k > limit, smallest value first
    large = [0] * (max_den // (limit + 1) + 1)
    for k in range(len(large) - 1, 0, -1):
        v, j, m = max_den // k, 2, 1
        while j <= v:
            w = v // j
            end = v // w
            m -= (end - j + 1) * (small[w] if w <= limit else large[k * j])
            j = end + 1
        large[k] = m
    total, d, m_before = 0, 1, 0
    while d <= max_den:
        v = max_den // d
        end = max_den // v
        m = small[end] if end <= limit else large[v]
        total += (m - m_before) * below(v)
        d, m_before = end + 1, m
    return total - below(1)


def _row(p: int, q: int, max_den: int) -> tuple[set[tuple[int, int]], ...]:
    """The sets of statements (i)-(v) at alpha = p/q, each from its own
    kernel and capped at max_den, less the integers floor(alpha) and
    floor(alpha) + 1: the only b = 1 pairs any of them holds, and the ones
    where (i) may hold without (iii).

    The lemma that lets one row stand for an orbit: the maps
    t -> t + n and t -> -t + n fix 1/0 in PGL_2(Z), so they carry every
    Ford circle to one of the same radius (Ford, "Fractions", Amer. Math.
    Monthly 45, 1938), and each statement at (x, alpha) with b >= 2 has the
    same verdict at (+-x + n, +-alpha + n).  So each set at +-p + n*q over q
    is the image (a, b) -> (+-a + n*b, b) of the set at p/q:
      (i)   -[a0; a1, a2, ...] = [-a0-1; 1, a1-1, a2, ...], or
            [-a0-1; a2+1, a3, ...] when a1 = 1, whose convergents with
            b >= 2 are the negated ones, and translation shifts a0;
      (ii)  the mediant tree is invariant under both maps;
      (iii) and (iv) |d*(+-alpha + n) - (+-c + n*d)| = |d*alpha - c|;
      (v)   denominators, tangency and betweenness are preserved.
    The tests hold each kernel to this on its own.
    """
    integers = {(p // q, 1), (p // q + 1, 1)}
    return tuple(make(p, q, max_den) - integers
                 for make in (_kernel.conv_set, _kernel.chain_set, _kernel.best_set,
                              _kernel.near_set, _kernel.witness_set))


def verify_sweep(den_max_x: int, den_max_alpha: int,
                 window: tuple[RationalLike, RationalLike]) -> dict:
    """Check the five-way equivalence over a rational grid and report.

    Runs the equivalence over every non-integer reduced x with denominator
    <= den_max_x strictly inside (lo - 1, hi + 1) against every reduced alpha
    with denominator <= den_max_alpha in [lo, hi).  The alphas are integer
    pairs (p, q) from the enumerator's runs; no Fraction or real is built
    per alpha.

    Each statement's set for a whole alpha comes from its own kernel, in
    integers, capped at den_max_x (_row): (i) the convergent recurrence on
    the Euclidean quotients of p/q and (ii) the Ford packing's mediant
    descent, one divmod per partial quotient each; then the records of
    (iii) and (iv), each from its own generator, one O(log q) residue
    search per record for (iii) and one O(log q) descent for all of (iv)'s;
    and one descent for (v)'s with two candidates per run.  A pair outside
    all five statement sets is false on all five, hence consistent, so it
    is counted without being visited, and five equal sets hold no
    inconsistency.  The maps t -> +-t + n carry each set onto the set at
    the image of alpha (Ford, 1938; the lemma is _row's), so the sets are
    equal at every alpha of an orbit or at none: the row is computed once
    per orbit, at its representative min(r, q - r)/q with r = p mod q, and
    an alpha whose orbit's row has five equal sets costs one lookup in a
    dict that lives for this call only.  At an alpha whose orbit's row
    differs, the row is computed again at alpha's own p/q, and the pairs
    inside its sets, all reduced, are visited in (b, a) order, the order of
    the x enumeration.  The xs are counted by Moebius inversion over floor
    sums (_count_xs), never listed.  With X = den_max_x and
    Y = den_max_alpha there are at most about 3*Y^2/(2*pi^2) orbits
    whatever the window, against about 3*Y^2/pi^2 alphas per unit of
    window, and the cost is O(orbits * log^2 Y) steps for the rows,
    O(|alphas|) for the lookups and about X^(2/3) steps and memory for the
    count, with no list of size X.  The tests hold the sets against the
    references in tests/reference.py, and each kernel to the lemma on its
    own.
    """
    lo, hi = _as_fraction(window[0]), _as_fraction(window[1])
    if lo >= hi:
        raise ValueError("window must satisfy lo < hi")
    den_max_x, den_max_alpha = _as_int(den_max_x), _as_int(den_max_alpha)
    if den_max_x < 1 or den_max_alpha < 1:
        raise ValueError("denominator caps must be >= 1")
    started = time.perf_counter()

    (ln, ld), (hn, hd) = (lo - 1).as_integer_ratio(), (hi + 1).as_integer_ratio()
    alphas = [(p, q) for q, run in _reduced_runs(lo, hi, den_max_alpha, include_hi=False)
              for p in run]

    agrees: dict[tuple[int, int], bool] = {}  # orbit -> whether its five sets are equal
    inconsistencies: list[dict] = []
    for p, q in alphas:
        r = p % q
        orbit = (min(r, q - r), q)
        if orbit not in agrees:
            conv_set, chain_set, best_set, near_set, witness_set = _row(*orbit, den_max_x)
            agrees[orbit] = conv_set == chain_set == best_set == near_set == witness_set
        if agrees[orbit]:
            continue
        sets = _row(p, q, den_max_x)
        for b, a in sorted((b, a) for a, b in set().union(*sets)
                           if 1 < b <= den_max_x and ln * b < a * ld and a * hd < hn * b):
            stmts = tuple((a, b) in found for found in sets)
            if any(stmts) and not all(stmts):
                inconsistencies.append({
                    "x": f"{a}/{b}",
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
