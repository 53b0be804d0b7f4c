"""Pure-Python kernels for the rational sweeps.

These are the per-pair predicates for x = a/b against a rational
alpha = p/q, written in plain integer arithmetic (everything is scaled by q,
or by 2*q*q for the radius route, so no fractions appear), and the per-alpha
candidate sets that decide a predicate for every x with b <= X in one scan
of O(X) integer work.  The per-pair predicates are the reference the sets
are tested against.

Candidate pruning (used by the best-approximation and nearby routes): for a
fixed denominator d, the form |d*alpha - c| and the tangent-horocircle radius
(d*alpha - c)^2 / (2*q*q) are both strictly increasing in the distance from c
to d*alpha, so only the two integers nearest d*alpha can violate either
predicate.  A violating fraction that is not reduced re-reduces to a smaller
denominator whose own nearest candidates violate as well, and a violator
farther than 1 from d*alpha forces the target form above 1, in which case the
nearest candidate at d = 1 already violates.  Hence scanning floor(d*alpha)
and floor(d*alpha) + 1 for every d up to b decides the predicates exactly.
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
            if c == a and d == b:
                continue
            if gcd(c, d) != 1:
                continue
            if abs(d * p - c * q) <= target:
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
            if c == a and d == b:
                continue
            if gcd(c, d) != 1:
                continue
            t = d * p - c * q
            if t * t <= rx:
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

    By the pruning lemma only the two candidates floor(d*p/q) and
    floor(d*p/q) + 1 at each d can satisfy or violate (iii): any other a/b has
    form |b*p - a*q| >= q, above the nearer candidate at d = 1 (form <= q/2).
    A reduced candidate therefore holds iff its form is strictly below every
    form of a reduced candidate with smaller d (the running minimum) and
    strictly below the form of the other reduced candidate at its own d.
    """
    found: set[tuple[int, int]] = set()
    record = q + 1  # above every form: both candidate forms lie in [0, q]
    for d in range(1, max_den + 1):
        c0, t0 = divmod(d * p, q)  # t0 = |d*p - c0*q|
        t1 = q - t0  # |d*p - (c0 + 1)*q|
        r0, r1 = gcd(c0, d) == 1, gcd(c0 + 1, d) == 1
        if r0 and t0 < record and not (r1 and t1 <= t0):
            found.add((c0, d))
        if r1 and t1 < record and not (r0 and t0 <= t1):
            found.add((c0 + 1, d))
        if r0 and t0 < record:
            record = t0
        if r1 and t1 < record:
            record = t1
    return found


def near_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iv) at once: every reduced (a, b) with b <= max_den for
    which near_flag(a, b, p, q) holds.

    The radii route of best_set's scan: tangent-horocircle radii at base
    alpha, cleared of the common factor 2*q*q to the squares
    (d*p - c*q)^2.  Only the two candidates nearest d*p/q at each d can hold
    or violate (iv), by the pruning lemma; a reduced candidate holds iff its
    radius is strictly below every radius of a reduced candidate with smaller
    d and strictly below that of the other reduced candidate at its own d.
    """
    found: set[tuple[int, int]] = set()
    least = q * q + 1  # above every radius: both candidate squares are <= q*q
    for d in range(1, max_den + 1):
        c0 = d * p // q
        e = d * p - c0 * q
        s0, s1 = e * e, (e - q) * (e - q)  # radii of c0 and c0 + 1
        r0, r1 = gcd(c0, d) == 1, gcd(c0 + 1, d) == 1
        if r0 and s0 < least and not (r1 and s1 <= s0):
            found.add((c0, d))
        if r1 and s1 < least and not (r0 and s0 <= s1):
            found.add((c0 + 1, d))
        if r0 and s0 < least:
            least = s0
        if r1 and s1 < least:
            least = s1
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
