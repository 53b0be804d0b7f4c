"""Seeded inputs, ground truth and output checks for each workload.

Every input is drawn from ``random.Random(seed)``, so one seed gives one
input set.  Ground truth comes from this file's own arithmetic (its own
fraction enumeration and convergent recurrence), never from the package
under test.  An operation returns ``(exit_code, stdout_text)``; its check
returns ``None`` when the output is right, else the reason it is not.

The cost of an operation is set by its shape (grid caps, denominators,
figure caps), and the shapes are the same for every seed; the seed draws the
values inside them (windows, coefficients, integer parts).  That keeps one
seed's figures comparable with another's while the inputs differ.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from math import ceil, floor, gcd, isqrt
from pathlib import Path
from typing import Callable, Iterable, Iterator

FLAGS = ("stmt_i", "stmt_ii", "stmt_iii", "stmt_iv", "stmt_v")
#: Partial quotients kept for ground truth; enough for every denominator used.
TRUTH_COEFFS = 60


@dataclass
class Op:
    label: str
    call: Callable[[], tuple[int, str]]
    check: Callable[[int, str], "str | None"]
    work: int = 1  # units counted by throughput_per_kref: pairs for a sweep, else 1
    streams: tuple = ()  # benchmark-built streams whose pulls a trace counts


def cli_op(fc, label: str, argv: list[str], check, work: int = 1) -> Op:
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = fc.cli.main(argv)  # looked up per call, so a trace sees it
        return code, out.getvalue()
    return Op(label, call, check, work)


# -- own arithmetic ----------------------------------------------------------

def count_reduced(lo: Fraction, hi: Fraction, max_den: int, *, open_ends: bool,
                  min_den: int = 1) -> int:
    """Reduced fractions with min_den <= den <= max_den in [lo, hi] or (lo, hi)."""
    total = 0
    for b in range(min_den, max_den + 1):
        a_lo, a_hi = ceil(lo * b), floor(hi * b)
        if open_ends:
            a_lo += lo * b == a_lo
            a_hi -= hi * b == a_hi
        total += sum(1 for a in range(a_lo, a_hi + 1) if gcd(abs(a), b) == 1)
    return total


def convergents_upto(b0: int, partials: Iterable[int], max_den: int) -> list[tuple[int, int]]:
    """(A_n, B_n) by the three-term recurrence, up to the first B_n > max_den."""
    out = [(b0, 1)]
    a_prev, b_prev, a, b = 1, 0, b0, 1
    for coeff in partials:
        a, a_prev = coeff * a + a_prev, a
        b, b_prev = coeff * b + b_prev, b
        out.append((a, b))
        if b > max_den:
            break
    return out


def sqrt_partials(n: int) -> Iterator[int]:
    """Partial quotients of sqrt(n) from complete quotients (P + sqrt n)/Q."""
    root = isqrt(n)
    p, q = 0, 1
    while True:
        p = (root + p) // q * q - p
        q = (n - p * p) // q
        yield (root + p) // q


def steer(rng: random.Random, target: int, small: int, ratio: int) -> list[int]:
    """Partial quotients b_1..b_K whose last convergent denominator B_K lands
    near target: random ones in 1..small while B < target/ratio, then the one
    that hits it (so B_K is within B_{K-1}/2 of target)."""
    coeffs: list[int] = []
    b_prev, b = 0, 1
    while b * ratio < target:
        coeffs.append(rng.randint(1, small))
        b, b_prev = coeffs[-1] * b + b_prev, b
    coeffs.append(max(2, round((target - b_prev) / b)))
    return coeffs


def xs_in_band(rng: random.Random, b0: int, partials: list[int],
               band: tuple[int, int]) -> list[tuple[str, tuple[int, int], bool]]:
    """(class, x, truth) around every convergent A_k/B_k with B_k in band.

    conv: A_k/B_k itself.  semi: a fraction whose first violator sits deep
    in the d = 1..b scan.  With e_k = B_k alpha - A_k, the semiconvergent
    (A_{k-1} + A_k)/(B_{k-1} + B_k), when b_{k+1} >= 2, has form
    (b_{k+1} - 1)|e_k| + |e_{k+1}| > |e_k| and no d < B_k beats |e_{k-1}|, so
    its first violator is d = B_k >= b/2; when b_{k+1} = 1 that fraction is
    A_{k+1}/B_{k+1}, and the skip mediant (A_{k-1} + A_{k+1})/(B_{k-1} + B_{k+1})
    is used, whose first violator is d = B_{k-1}.  rand: a/B_k with
    |B_k alpha - a| >= 2, violated at d = 1.  Truth is membership among the
    convergents from this file's recurrence, for all three.
    """
    convs = convergents_upto(b0, partials, 4 * band[1])
    conv_set = set(convs)
    out = []
    for k in range(1, len(convs) - 1):
        a_k, b_k = convs[k]
        if not band[0] <= b_k <= band[1]:
            continue
        (a_p, b_p), (a_n, b_n) = convs[k - 1], convs[k + 1]
        semi = (a_p + a_k, b_p + b_k) if partials[k] >= 2 else (a_p + a_n, b_p + b_n)
        a_far, b_far = convs[-1]
        xs = [("conv", (a_k, b_k)), ("semi", semi)]
        for r in rng.sample((-4, -3, 3, 4), 4):
            if gcd(abs(a_far * b_k // b_far + r), b_k) == 1:
                xs.append(("rand", (a_far * b_k // b_far + r, b_k)))
                break
        out += [(cls, x, x in conv_set) for cls, x in xs]
    return out


def targets(lo: int, hi: int, n: int) -> list[int]:
    """n denominators spread geometrically over [lo, hi]."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


class ECoefficients:
    """Partial quotients of e after b0: 1, 2, 1, 1, 4, 1, 1, 6, 1, ..."""

    def __iter__(self):
        k = 1
        while True:
            yield 1
            yield 2 * k
            yield 1
            k += 1


class SeededTail:
    """A fixed head of partial quotients, then seeded ones in 1..3 forever:
    not eventually periodic, and the same on every restart."""

    def __init__(self, head: list[int], key: str, length: int = 200):
        rng = random.Random(key)
        self.key = key
        self.head = tuple(head) + tuple(rng.randint(1, 3) for _ in range(length))

    def __iter__(self):
        yield from self.head
        rng = random.Random(self.key + ":beyond")
        while True:
            yield rng.randint(1, 3)


# -- sweep -------------------------------------------------------------------

#: (X, Y) of the mid-sized grids; their windows are drawn from the seed.
MID_GRIDS = [(14, 12), (16, 10), (18, 8), (20, 8), (16, 12), (12, 14)] * 5


def sweep(rng: random.Random, fc) -> list[Op]:
    """The criterion-1 grid, a large-X small-Y grid on a negative window, and
    30 mid-sized grids on seeded windows, each one `fordcircles verify` call."""
    k = rng.randint(2, 6)
    grids = [(30, 30, Fraction(0), Fraction(2)), (75, 5, Fraction(-k), Fraction(1 - k))]
    for x_cap, y_cap in MID_GRIDS:
        lo = rng.randint(-5, 4) + Fraction(rng.randrange(4), 4)
        grids.append((x_cap, y_cap, lo, lo + 1))
    ops = []
    for x_cap, y_cap, lo, hi in grids:
        xs = count_reduced(lo - 1, hi + 1, x_cap, open_ends=True, min_den=2)
        alphas = count_reduced(lo, hi, y_cap, open_ends=False) \
            - count_reduced(hi, hi, y_cap, open_ends=False)
        pairs = xs * alphas

        def check(code, out, pairs=pairs):
            if code != 0:
                return f"exit code {code}"
            report = json.loads(out)
            if report["totalChecked"] != pairs:
                return f"totalChecked {report['totalChecked']} != {pairs}"
            if report["inconsistencies"] != []:
                return f"{len(report['inconsistencies'])} inconsistencies"
            return None

        argv = ["verify", "--max-den-x", str(x_cap), "--max-den-alpha", str(y_cap),
                "--window", f"{lo}..{hi}"]
        ops.append(cli_op(fc, " ".join(argv), argv, check, work=pairs))
    return ops


# -- check -------------------------------------------------------------------

#: Denominator band of x for the stream classes, and steered slots per class.
STREAM_BAND = (30, 90)
STREAM_SLOTS = 36


def _check_flags(expected: bool):
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out)
        got = [report[k] for k in FLAGS]
        if got != [expected] * 5 or report["consistent"] is not True:
            return f"flags {got} consistent={report['consistent']}, want all {expected}"
        return None
    return check


def _steered_stream(rng: random.Random, target: int) -> tuple[int, list[int], int]:
    """b0, a head of partial quotients and B_K near target, with b_{K+1} >= 2."""
    head = steer(rng, target, small=2, ratio=8) + [rng.randint(2, 3)]
    b0 = rng.randint(-3, 3)
    b_k = convergents_upto(b0, head[:-1], 10**9)[-1][1]
    return b0, head, b_k


def check_periodic(rng: random.Random, fc) -> list[Op]:
    """`fordcircles check x SPEC` for golden, sqrt:n and periodic cf: specs.

    The cf: specs are steered so that one convergent denominator sits at
    each of STREAM_SLOTS fixed targets in STREAM_BAND."""
    alphas = [("golden", 1, [1] * TRUTH_COEFFS, STREAM_BAND)]
    for m in rng.sample((4, 5, 6), 2):  # sqrt(m^2 + 2) = [m; m, 2m, m, 2m, ...]
        n = m * m + 2
        alphas.append((f"sqrt:{n}", m, list(islice(sqrt_partials(n), TRUTH_COEFFS)),
                       STREAM_BAND))
    for target in targets(*STREAM_BAND, STREAM_SLOTS):
        b0, head, b_k = _steered_stream(rng, target)
        period = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        spec = f"cf:{b0};{','.join(map(str, head))},({','.join(map(str, period))})"
        partials = head + list(islice(cycle(period), TRUTH_COEFFS))
        alphas.append((spec, b0, partials, (b_k, b_k)))
    ops = []
    for spec, b0, partials, band in alphas:
        for cls, (a, b), truth in xs_in_band(rng, b0, partials, band):
            ops.append(cli_op(fc, f"check {a}/{b} {spec} [{cls}]",
                              ["check", f"{a}/{b}", spec], _check_flags(truth)))
    return ops


def check_aperiodic(rng: random.Random, fc) -> list[Op]:
    """`theorem_u_check` through the library on restartable streams that are
    not eventually periodic: e + k, and steered heads with seeded tails."""
    k = rng.randint(-2, 2)
    entries = [(f"e{k:+d}", 2 + k, ECoefficients(), STREAM_BAND)]
    for i, target in enumerate(targets(*STREAM_BAND, STREAM_SLOTS)):
        b0, head, b_k = _steered_stream(rng, target)
        entries.append((f"steered{i}", b0, SeededTail(head, f"{rng.getrandbits(64)}"),
                        (b_k, b_k)))
    ops = []
    for label, b0, partials, band in entries:
        stream = fc.pkg.CFStream(b0, partials, label=label)
        for cls, (a, b), truth in xs_in_band(rng, b0, list(islice(partials, TRUTH_COEFFS)),
                                             band):
            x = Fraction(a, b)

            def call(x=x, stream=stream):
                report = fc.pkg.theorem_u_check(x, stream)
                return 0, json.dumps(report.to_json_dict(), indent=2)

            ops.append(Op(f"theorem_u_check {a}/{b} {label} [{cls}]", call,
                          _check_flags(truth), streams=(stream,)))
    return ops


def check_rational(rng: random.Random, fc) -> list[Op]:
    """`fordcircles check x p/q` with q in [2e6, 8e6]: the per-pair kernel
    scan, one pair at a time, with B_K steered to 40 targets in [6000, 20000]."""
    ops = []
    for target in targets(6000, 20000, 40):
        head = steer(rng, target, small=3, ratio=40) + [rng.randint(2, 3)]
        b0, q_target = rng.randint(-2, 2), rng.randint(2 * 10**6, 8 * 10**6)
        # then random quotients, and a last one (>= 2) that brings q near q_target
        partials = list(head)
        convs = convergents_upto(b0, partials, 10**18)
        while convs[-1][1] * 40 < q_target:
            partials.append(rng.randint(1, 3))
            convs = convergents_upto(b0, partials, 10**18)
        partials.append(max(2, round((q_target - convs[-2][1]) / convs[-1][1])))
        p, q = convergents_upto(b0, partials, 10**18)[-1]
        b_k = convergents_upto(b0, head[:-1], 10**9)[-1][1]
        for cls, (a, b), truth in xs_in_band(rng, b0, partials, (b_k, b_k)):
            ops.append(cli_op(fc, f"check {a}/{b} {p}/{q} [{cls}]",
                              ["check", f"{a}/{b}", f"{p}/{q}"], _check_flags(truth)))
    return ops


# -- render ------------------------------------------------------------------

def render(rng: random.Random, fc, digests: list[str] | None = None) -> list[Op]:
    """`fordcircles render field|chain|witness`: fixed caps and window widths,
    seeded window positions and alphas.

    The check counts `<circle` elements against this file's own count and,
    when digests are given, compares each document's sha256."""
    ops = []
    for i in range(60):
        kind = ("field", "chain", "witness")[i % 3]
        max_den = 40 + (11 * i) % 31
        width = (Fraction(1, 2), Fraction(1))[i // 3 % 2]
        offset = Fraction(rng.randrange(4), 4)
        if kind == "field":
            lo = rng.randint(-3, 2) + offset
            argv, extra = ["render", "field"], 0
        else:
            if rng.random() < 0.5:
                spec, b0, partials = "golden", 1, [1] * TRUTH_COEFFS
            else:
                m = rng.randint(2, 12)  # sqrt(m^2 + 1) = [m; 2m, 2m, ...]
                spec, b0, partials = f"sqrt:{m * m + 1}", m, [2 * m] * TRUTH_COEFFS
            lo = b0 + offset - width
            if kind == "chain":
                depth = rng.randint(3, 7)
                argv, extra = ["render", "chain", spec, "--depth", str(depth)], depth
            else:
                convs = [c for c in convergents_upto(b0, partials, 10**6) if c[1] >= 2]
                a, b = convs[rng.randint(0, 2)]
                argv, extra = ["render", "witness", f"{a}/{b}", spec], 2
        hi = lo + width
        argv += ["--window", f"{lo}..{hi}", "--max-den", str(max_den)]
        circles = count_reduced(lo, hi, max_den, open_ends=False) + extra
        want = None if digests is None else digests[i]

        def check(code, out, circles=circles, want=want):
            if code != 0:
                return f"exit code {code}"
            if out.count("<circle") != circles:
                return f"{out.count('<circle')} circles, want {circles}"
            if want is not None and svg_digest(out) != want:
                return "svg sha256 differs from the recorded digest"
            return None

        ops.append(cli_op(fc, " ".join(argv), argv, check))
    return ops


def svg_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {
    "sweep": sweep,
    "check-periodic": check_periodic,
    "check-aperiodic": check_aperiodic,
    "check-rational": check_rational,
    "render": render,
}

DIGESTS = Path(__file__).with_name("render_digests.json")


def recorded_digests(seed: int) -> list[str] | None:
    """The render digests recorded for this seed, if any."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(str(seed))


def generate(name: str, seed: int, fc) -> list[Op]:
    """The operations of one workload for one seed."""
    rng = random.Random(seed)
    if name == "render":
        return render(rng, fc, recorded_digests(seed))
    return WORKLOADS[name](rng, fc)
