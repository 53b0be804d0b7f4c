"""Pure-Python kernels for the rational sweeps.

These are the per-pair predicates for x = a/b against a rational
alpha = p/q, written in plain integer arithmetic (everything is scaled by q,
or by 2*q*q for the radius route, so no fractions appear), and the per-alpha
candidate sets that decide a predicate for every x with b <= X in one scan
of O(X) integer work.  The per-pair predicates are the reference the sets
are tested against; the unpruned reference lives in the tests.

Candidate pruning (used by the best-approximation and nearby routes): at a
fixed d the form t(c, d) = |d*p - c*q| and the radius t(c, d)^2 / (2*q*q)
grow strictly with the distance from c to d*p/q, so only c0 = floor(d*p/q)
and c0 + 1 (forms in [0, q]) can hold or violate either predicate; any
other c has t >= q and loses to the nearer candidate at d = 1 (t <= q/2).
Reducedness never decides: a candidate with g = gcd(c, d) >= 2 has
t(c, d) = g*t(c/g, d/g), so t(c/g, d/g) <= q/2 and the reduced c/g over d/g
is a candidate at d/g < d with a form no larger.  A non-reduced candidate
is therefore never the first violator, never holds and never lowers a
running minimum, and the kernels scan both candidates at each d, no gcd.
"""

from __future__ import annotations

from math import gcd


def best_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iii): is a/b a best approximation of the second kind to p/q.

    Works with the scaled linear forms t(c, d) = |d*p - c*q|; the requirement
    is t(c, d) > t(a, b) for every reduced c/d != a/b with d <= b.
    """
    target = abs(b * p - a * q)
    for d in range(1, b + 1):
        c0 = d * p // q
        for c in (c0, c0 + 1):
            if abs(d * p - c * q) <= target and (c != a or d != b):
                return False
    return True


def near_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iv): is the Ford circle at a/b nearby to p/q.

    Works with tangent-horocircle radii: the radius for base z = c/d is
    (d*p - c*q)^2 / (2*q*q), so after clearing the common factor the
    comparison is between squared integers.  Every circle with radius >= that
    of C_x (denominator d <= b) other than C_x itself must give a strictly
    larger radius.
    """
    rx = (b * p - a * q) ** 2
    for d in range(1, b + 1):
        c0 = d * p // q
        for c in (c0, c0 + 1):
            t = d * p - c * q
            if t * t <= rx and (c != a or d != b):
                return False
    return True


def witness_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (v): does a tangent circle at x = a/b witness p/q.

    The witness is the tangent neighbor y of x on alpha's side whose
    denominator is minimal among those exceeding b; it exists iff alpha lies
    strictly inside the open interval (x, y), i.e. |alpha - x| < 1/(b*den(y)).
    """
    lhs = p * b - a * q
    if lhs == 0:
        return True
    side = 1 if lhs > 0 else -1
    if b == 1:
        d = 2
    else:
        d = (-side * pow(a, -1, b)) % b + b
    return abs(lhs) * d < q


def best_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iii) at once: every reduced (a, b) with b <= max_den for
    which best_flag(a, b, p, q) holds.

    By the pruning lemma only the nearer of floor(d*p/q) and floor(d*p/q) + 1
    can hold at each d, and it does iff its form is strictly below the
    other's and strictly below the running minimum of the forms at smaller
    d.  No non-reduced candidate passes, so every pair found is reduced.
    """
    found: set[tuple[int, int]] = set()
    record = q + 1  # above every form: both candidate forms lie in [0, q]
    for d in range(1, max_den + 1):
        c0, t0 = divmod(d * p, q)  # t0 = |d*p - c0*q|
        t1 = q - t0  # |d*p - (c0 + 1)*q|
        c, t = (c0, t0) if t0 < t1 else (c0 + 1, t1)
        if t < record:
            if t0 != t1:
                found.add((c, d))
            record = t
    return found


def near_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iv) at once: every reduced (a, b) with b <= max_den for
    which near_flag(a, b, p, q) holds.

    The radii route of best_set's scan: tangent-horocircle radii at base
    alpha, cleared of the common factor 2*q*q to the squares
    (d*p - c*q)^2.  By the pruning lemma only the nearer candidate at each
    d can hold, iff its radius is strictly below the other's and below every
    radius at smaller d; no non-reduced candidate passes.
    """
    found: set[tuple[int, int]] = set()
    least = q * q + 1  # above every radius: both candidate squares are <= q*q
    for d in range(1, max_den + 1):
        c0 = d * p // q
        e = d * p - c0 * q
        s0, s1 = e * e, (e - q) * (e - q)  # radii of c0 and c0 + 1
        c, r = (c0, s0) if s0 < s1 else (c0 + 1, s1)
        if r < least:
            if s0 != s1:
                found.add((c, d))
            least = r
    return found


def witness_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (v) at once: every reduced (a, b) with b <= max_den for
    which witness_flag(a, b, p, q) holds.

    A witness y at x = a/b has den(y) = d > b and |alpha - x| < 1/(b*d),
    so |b*alpha - a| < 1/d < 1: only a = floor(b*p/q) and a = floor(b*p/q) + 1
    can qualify, and witness_flag decides those two.
    """
    found: set[tuple[int, int]] = set()
    for b in range(1, max_den + 1):
        c0 = b * p // q
        for a in (c0, c0 + 1):
            if gcd(a, b) == 1 and witness_flag(a, b, p, q):
                found.add((a, b))
    return found
