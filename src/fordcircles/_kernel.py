"""Integer kernels for the rational sweeps, in plain Python.

Statements (iii), (iv) and (v) for x = a/b against a rational alpha = p/q,
in integers (scaled by q, or by 2*q*q for radii), per pair (the flags) and
per alpha for every b <= X (the sets).  (iii) and (iv) are record
properties: x holds iff its form beats that of every earlier denominator.
So each has one generator of its records (least d, there the nearest c)
from a threshold, each its own way, in O(log q) steps per search: (iii) a
first-hit residue search per record, (iv) one Stern-Brocot descent on the
squared forms for all its records, resumed at each.  A flag holds iff the
first record from x's own form is x; a set is every record from the
widest threshold.  (v)'s set splits its candidates by a hyperbola,
b <= sqrt(q) or |b*p - a*q| < sqrt(q), in O(sqrt(q)) steps and with no
(iii) or (iv) code.  The tests hold the kernels against
tests/reference.py.

Candidate pruning, one lemma for every real alpha (streams reach it via
verify._farey_proxy): at a fixed d the form |d*alpha - c| and the radius
(d*alpha - c)^2 / 2 grow strictly with the distance from c to d*alpha, so
only the integer nearest d*alpha can hold or violate either predicate, and
at an irrational alpha it is unique.  At p/q the form scaled by q is
t(c, d) = |d*p - c*q|: the nearest is c0 = floor(d*p/q) or c0 + 1 (forms
r = d*p mod q and q - r), and any other c has t >= q and loses to the nearer
candidate at d = 1 (t <= q/2).  At a tie, r == q - r, both candidates
have the form q/2, a violation for both, and the searches return neither:
(iii) searches below q/2, and (iv) skips a tie at d = 1, while a tie at a
larger d loses to the nearer candidate at d = 1.  Reducedness never
decides: a candidate with g = gcd(c, d) >= 2 has t(c, d) = g*t(c/g, d/g),
so t(c/g, d/g) <= q/2 and the reduced c/g over d/g is a candidate at
d/g < d with a form no larger.  A non-reduced candidate is therefore
never a first hit, so the searches need no gcd.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd, isqrt


def backend_name() -> str:
    """The kernel's name in run reports."""
    return "pure"


def _tangent_neighbor_den(a: int, b: int, side: int) -> int:
    """The least denominator above b of a tangent neighbor of a/b on the given
    side (+1 right, -1 left): those form one residue class mod b, so it lies
    in (b, 2b]; for b = 1 it is 2 (pow(a, -1, 1) is 0)."""
    return 2 if b == 1 else (-side * pow(a, -1, b)) % b + b


def _first_hit(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least k >= 0 with lo <= a*k mod m <= hi, for 0 <= lo <= hi < m,
    or None if there is none.

    If no multiple of a (reduced mod m, so 0 < a < m) lies in [lo, hi], then
    hi - lo < a, and a*k - j*m lies in [lo, hi] iff (-j*m) mod a lies in
    [lo mod a, lo mod a + hi - lo], a window inside [1, a - 1]: the least j
    there gives k = ceil((lo + j*m)/a).  For a > m/2 that step shrinks m
    only to a, and m = 1 (mod a) would take m steps, so first reflect
    (a, [lo, hi]) to (m - a, [m - hi, m - lo]): for lo >= 1 the k that hit
    are the same.  Then a <= m/2 and m at least halves at every step."""
    if lo == 0:
        return 0
    back: list[tuple[int, int, int]] = []
    while True:
        a %= m
        if a == 0:
            return None
        if 2 * a > m:
            a, lo, hi = m - a, m - hi, m - lo
        k = -(-lo // a)
        if k * a <= hi:
            break
        back.append((lo, m, a))
        a, m, lo, hi = -m % a, a, lo % a, lo % a + hi - lo
    for lo, m, a in reversed(back):
        k = -(-(lo + k * m) // a)
    return k


def _best_hits(p: int, q: int, t: int, max_den: int) -> Iterator[tuple[int, int]]:
    """The records of (iii) from the threshold t, for 0 <= 2*t < q: each
    (c, d) with d <= max_den, in order of d, whose nearer candidate c has a
    form t(c, d) at most t and below the form of every earlier record.

    The first is the least d whose residue r = d*p mod q has
    min(r, q - r) <= t, i.e. (d*p + t) mod q <= 2*t; as 2*t < q, no tie
    (form q/2) is a hit.  With d = k + 1 it is the first hit k of p*k mod q
    in [(-p - t) mod q, that + 2*t]; a window reaching past q holds 0
    (k = 0, d = 1), and otherwise _first_hit finds k in O(log q) steps.
    Some d <= q has r = 0, so a hit exists.  Forms are integers, so the next
    record is the first hit at one below this one's form, where no smaller d
    can hit: searching again from d = 1 is exact.  p/q (form 0) ends it."""
    while t >= 0:
        lo = (-p - t) % q
        d = 1 if lo + 2 * t >= q else 1 + _first_hit(p, q, lo, lo + 2 * t)
        if d > max_den:
            return
        c, t = divmod(d * p, q)
        if 2 * t > q:
            c, t = c + 1, q - t
        yield c, d
        t -= 1


def best_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iii): is a/b a best approximation of the second kind to p/q.

    Requires t(c, d) = |d*p - c*q| > t(a, b) = t for every reduced
    c/d != a/b with d <= b.  If 2*t >= q the nearer candidate at d = 1
    (form <= q/2 <= t) refutes x.  Otherwise x holds iff it is the first
    record of _best_hits from t: at d = b the other candidates have forms
    >= q - t > t, so a is the nearest."""
    t = abs(b * p - a * q)
    return 2 * t < q and next(_best_hits(p, q, t, b), None) == (a, b)


def _near_hits(p: int, q: int, rx: int, max_den: int) -> Iterator[tuple[int, int]]:
    """The records of (iv) from the threshold rx >= 0: each (c, d) with
    d <= max_den, in order of d and there the nearest c, whose squared form
    (d*p - c*q)^2 is at most rx and below that of every earlier record.
    At d = 1 the candidates are floor(p/q) and floor(p/q) + 1; when their
    forms tie (2*r == q with r = p mod q), d = 1 has no hit.

    The lemma: the Stern-Brocot path to p/q starts at those two integers and
    goes on by mediants of its two ends, one on each side of p/q, until it
    reaches p/q, with d growing at every node.  A reduced c/d off the path
    has a path node u/v with v <= d strictly between c/d and p/q, so
    v*|p/q - u/v| < d*|p/q - c/d|.  Hence the first hit at any threshold is
    a path node, and the records are the path nodes that hit at one below
    the last record's square (forms are integers).

    The descent, on |e| with e = d*p - c*q: the ends X (the larger |e|) and
    Y lie on opposite sides of p/q, so along the run M_j = X + j*Y the form
    e_X + j*e_Y moves monotonically to 0 and first changes sign, or vanishes,
    at J = ceil(|e_X|/|e_Y|).  For j < J its size is |e_X| - j*|e_Y|, so
    j = max(1, ceil((|e_X| - isqrt(rx))/|e_Y|)), which is at most J, is the
    run's next hit if j < J, and otherwise only M_J can hit.  A hit M_j with
    j < J lies on X's side, so the ends become M_j and Y; otherwise they
    become M_(J-1) and M_J, of sizes |e_Y| - |e_J| and |e_J|: one Euclid
    step on (|e_X|, |e_Y|).  So one descent of O(log q) runs yields every
    record, with rx one below the last record's square.  p/q itself
    (e = 0) always hits and ends it, as does the first d > max_den."""
    c, r = divmod(p, q)
    near, far = (c, 1, r), (c + 1, 1, q - r)  # (c, d, |e|) at d = 1
    if 2 * r > q:
        near, far = far, near
    if 2 * r != q and near[2] * near[2] <= rx:
        yield near[:2]
        rx = near[2] * near[2] - 1
    while rx >= 0:
        root = isqrt(rx)
        (cx, dx, fx), (cy, dy, fy) = far, near
        j = max(1, -(-(fx - root) // fy))
        d = dx + j * dy
        if d > max_den:
            return
        e = fx - j * fy
        if e * e <= rx:
            yield cx + j * cy, d
            rx = e * e - 1
        if e > 0:
            far = (cx + j * cy, d, e)
        else:
            far, near = (cx + (j - 1) * cy, d - dy, fy + e), (cx + j * cy, d, -e)
        if far[2] < near[2]:
            far, near = near, far


def near_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iv): is the Ford circle at a/b nearby to p/q.

    Every circle C_{c/d} != C_x with d <= b (radius >= that of C_x) needs a
    larger tangent-horocircle radius (d*p - c*q)^2 / (2*q*q) at alpha.  So
    x holds iff the first record of _near_hits from (b*p - a*q)^2 is a/b."""
    return next(_near_hits(p, q, (b * p - a * q) ** 2, b), None) == (a, b)


def witness_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (v): does a tangent circle at x = a/b witness p/q.

    The witness is the tangent neighbor y of x on alpha's side whose
    denominator is minimal among those exceeding b; it exists iff alpha lies
    strictly inside the open interval (x, y), i.e. |alpha - x| < 1/(b*den(y)).
    """
    lhs = p * b - a * q
    if lhs == 0:
        return True
    return abs(lhs) * _tangent_neighbor_den(a, b, 1 if lhs > 0 else -1) < q


def best_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iii) at once: every reduced (a, b) with b <= max_den for
    which best_flag(a, b, p, q) holds, i.e. every record of _best_hits from
    the widest threshold, just below q/2."""
    return set(_best_hits(p, q, (q - 1) // 2, max_den))


def near_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iv) at once: every reduced (a, b) with b <= max_den for
    which near_flag(a, b, p, q) holds, i.e. every record of _near_hits from
    q*q, above every form at d = 1: one descent."""
    return set(_near_hits(p, q, q * q, max_den))


def witness_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (v) at once: every reduced (a, b) with b <= max_den for
    which witness_flag(a, b, p, q) holds, in O(sqrt(q)) steps.

    A witness y at x = a/b has den(y) = d > b and |alpha - x| < 1/(b*d),
    i.e. |lhs| * d < q with lhs = b*p - a*q.  So |lhs| * b < q is
    necessary, and as |lhs| < q only a = floor(b*p/q) (lhs = r = b*p mod q)
    and a + 1 (lhs = r - q) can qualify.

    Hyperbola split, with s = isqrt(q): x = p/q is the one witness with
    lhs = 0 (b = q, as p/q is reduced), and any other has |lhs| >= 1 and
    |lhs| * d < q with d >= b + 1.  So b <= s, or d >= s + 2 and
    |lhs| < q/(s + 2) <= s, as q <= (s + 1)^2 - 1 = s*(s + 2).  So scan the
    b <= min(X, s), and for each r in 1..s-1 and each sign take the one b
    in (0, q) with b*p = +-r mod q, that is +-r * p^-1 mod q, when
    s < b <= X; its a is (b*p -+ r) / q.  A candidate that passes the
    necessary bound and gcd is decided by witness_flag.  No (iii) or (iv)
    code is reached.
    """
    s = isqrt(q)
    candidates = [(p, q)] if q <= max_den else []  # |b*p - a*q| * b < q
    for b in range(1, min(max_den, s) + 1):
        c0, r = divmod(b * p, q)
        if r * b < q:
            candidates.append((c0, b))
        if (q - r) * b < q:
            candidates.append((c0 + 1, b))
    if max_den > s:
        inverse = pow(p, -1, q)
        for r in range(1, s):
            for b, lhs in ((r * inverse % q, r), (-r * inverse % q, -r)):
                if s < b <= max_den and r * b < q:
                    candidates.append(((b * p - lhs) // q, b))
    return {(a, b) for a, b in candidates if gcd(a, b) == 1 and witness_flag(a, b, p, q)}
