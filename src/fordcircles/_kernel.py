"""Integer kernels for the rational sweeps, in plain Python.

Statements (iii), (iv) and (v) for x = a/b against a rational alpha = p/q,
in integers (scaled by q, or by 2*q*q for radii), per pair (the flags) and
per alpha for every b <= X (the sets).  (iii) and (iv) each have one
search, each its own way, for the first candidate (least d, there the
nearest c) whose form is at most a threshold, in O(log q) steps: (iii) a
first-hit residue search, (iv) a Stern-Brocot descent on the squared forms.
A flag holds iff the first hit at x's own form is x.  A set collects the
records, the d whose nearer candidate has a form below every one at
smaller d: forms are integers, so each is the first hit at one below the
last, and a set makes one search per record.  Only (v)'s set walks every
b <= X.  The tests hold the kernels against tests/reference.py.

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


def _best_first(p: int, q: int, t: int) -> int:
    """The least d >= 1 whose nearer candidate has a form t(c, d) <= t, for
    0 <= t with 2*t < q.

    That is the least d whose residue r = d*p mod q has min(r, q - r) <= t,
    i.e. (d*p + t) mod q <= 2*t; as 2*t < q, no tie (form q/2) is a hit.
    With d = k + 1 it is the first hit k of p*k mod q in
    [(-p - t) mod q, that + 2*t]; a window reaching past q holds 0 (k = 0,
    d = 1), and otherwise _first_hit finds k in O(log q) steps.  Some d <= q
    has r = 0, so a hit exists."""
    lo = (-p - t) % q
    return 1 if lo + 2 * t >= q else 1 + _first_hit(p, q, lo, lo + 2 * t)


def best_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iii): is a/b a best approximation of the second kind to p/q.

    Requires t(c, d) = |d*p - c*q| > t(a, b) = t for every reduced
    c/d != a/b with d <= b.  If 2*t >= q the nearer candidate at d = 1
    (form <= q/2 <= t) refutes x.  Otherwise x holds iff _best_first at t
    is b: at d = b the other candidates have forms >= q - t > t, so a is
    the nearest."""
    t = abs(b * p - a * q)
    return 2 * t < q and _best_first(p, q, t) == b


def _near_first(p: int, q: int, rx: int, max_den: int) -> tuple[int, int] | None:
    """The first (c, d), at the least d and there the nearest c, with
    (d*p - c*q)^2 <= rx, for rx >= 0 and max_den >= 1, or None if it has
    d > max_den.  At d = 1 the candidates are floor(p/q) and floor(p/q) + 1;
    when their forms tie (2*r == q with r = p mod q), d = 1 has no hit.

    The lemma: the Stern-Brocot path to p/q starts at those two integers and
    goes on by mediants of its two ends, one on each side of p/q, until it
    reaches p/q, with d growing at every node.  A reduced c/d off the path
    has a path node u/v with v <= d strictly between c/d and p/q, so
    v*|p/q - u/v| < d*|p/q - c/d|.  Hence the first hit is a path node.

    The descent, on |e| with e = d*p - c*q: the ends X (the larger |e|) and
    Y lie on opposite sides of p/q, so along the run M_j = X + j*Y the form
    e_X + j*e_Y moves monotonically to 0 and first changes sign, or vanishes,
    at J = ceil(|e_X|/|e_Y|).  For j < J its size is |e_X| - j*|e_Y|, so
    j = max(1, ceil((|e_X| - isqrt(rx))/|e_Y|)), which is at most J, is the
    run's first hit if j < J, and otherwise only M_J can hit.  Without a hit
    (so j = J) the ends become M_(J-1) and M_J, of sizes |e_Y| - |e_J| and
    |e_J|: one Euclid step on (|e_X|, |e_Y|), so there are O(log q) runs.
    p/q itself (e = 0) always hits, and the first node with d > max_den
    ends the descent."""
    c, r = divmod(p, q)
    near, far = (c, 1, r), (c + 1, 1, q - r)  # (c, d, |e|) at d = 1
    if 2 * r > q:
        near, far = far, near
    if 2 * r != q and near[2] * near[2] <= rx:
        return near[:2]
    root = isqrt(rx)
    while True:
        (cx, dx, fx), (cy, dy, fy) = far, near
        j = max(1, -(-(fx - root) // fy))
        d = dx + j * dy
        if d > max_den:
            return None
        f = abs(fx - j * fy)
        if f * f <= rx:
            return cx + j * cy, d
        far, near = (cx + (j - 1) * cy, d - dy, fy - f), (cx + j * cy, d, f)
        if far[2] < f:
            far, near = near, far


def near_flag(a: int, b: int, p: int, q: int) -> bool:
    """Statement (iv): is the Ford circle at a/b nearby to p/q.

    Every circle C_{c/d} != C_x with d <= b (radius >= that of C_x) needs a
    larger tangent-horocircle radius (d*p - c*q)^2 / (2*q*q) at alpha.  So
    x holds iff the first c/d with (d*p - c*q)^2 <= (b*p - a*q)^2, found by
    _near_first, is a/b."""
    return _near_first(p, q, (b * p - a * q) ** 2, b) == (a, b)


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
    which best_flag(a, b, p, q) holds, i.e. every record of the forms: the
    first hit below q/2, then each first hit below the form of the last,
    down to p/q itself (form 0)."""
    found: set[tuple[int, int]] = set()
    t = (q - 1) // 2
    while (d := _best_first(p, q, t)) <= max_den:
        c, r = divmod(d * p, q)
        if 2 * r > q:
            c, r = c + 1, q - r
        found.add((c, d))
        if r == 0:
            break
        t = r - 1
    return found


def near_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (iv) at once: every reduced (a, b) with b <= max_den for
    which near_flag(a, b, p, q) holds, i.e. every record of the squared
    forms: the first hit at q*q, then each first hit below the square of
    the last, down to p/q itself (e = 0)."""
    found: set[tuple[int, int]] = set()
    rx = q * q
    while (hit := _near_first(p, q, rx, max_den)) is not None:
        found.add(hit)
        e = hit[1] * p - hit[0] * q
        if e == 0:
            break
        rx = e * e - 1
    return found


def witness_set(p: int, q: int, max_den: int) -> set[tuple[int, int]]:
    """Statement (v) at once: every reduced (a, b) with b <= max_den for
    which witness_flag(a, b, p, q) holds.

    A witness y at x = a/b has den(y) = d > b and |alpha - x| < 1/(b*d),
    so |b*alpha - a| < 1/d < 1: only a = floor(b*p/q) and a = floor(b*p/q) + 1
    can qualify, and witness_flag decides those two.

    Prefilter lemma: witness_flag holds iff |lhs| * d < q with
    lhs = b*p - a*q, and d > b, so |lhs| * b < q is necessary.  With
    c0, r = divmod(b*p, q) the two candidates have |lhs| = r (a = c0) and
    q - r (a = c0 + 1); a candidate failing |lhs| * b < q is dropped before
    its gcd and its witness_flag call.
    """
    found: set[tuple[int, int]] = set()
    for b in range(1, max_den + 1):
        c0, r = divmod(b * p, q)
        if r * b < q and gcd(c0, b) == 1 and witness_flag(c0, b, p, q):
            found.add((c0, b))
        if (q - r) * b < q and gcd(c0 + 1, b) == 1 and witness_flag(c0 + 1, b, p, q):
            found.add((c0 + 1, b))
    return found
