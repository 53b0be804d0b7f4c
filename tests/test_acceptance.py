"""Acceptance suite: the nine package-level criteria at their stated scales.

Each test prints one `criterion N: PASS/FAIL` line (unbuffered, outside
pytest's capture) and then asserts, so a plain `pytest -v` run shows the
scoreboard.  Criterion 8 is expected to fail: the penultimate construction
has a genuine boundary exception at single-coefficient expansions (see the
test body), and the suite reports it rather than weakening the property.
"""

from __future__ import annotations

import json
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import reference
from fordcircles import (
    GapRelation,
    RenderSpec,
    cf_of_rational,
    cf_of_real,
    convergent_ordering_check,
    convergents,
    floor_scaled,
    gap_relation,
    generic_tangent_radius,
    golden_ratio,
    is_best_approx_2nd,
    is_nearby,
    penultimate_pair,
    reduced_fractions_in,
    render_ford_field,
    render_statement_v,
    sqrt_real,
    tangent_horocircle_radius,
    theorem_u_check,
    value,
    verify_sweep,
)
from fordcircles._kernel import _pure


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def stream_alphas():
    return [golden_ratio(), sqrt_real(2), sqrt_real(3)]


def nonconvergents_near(alpha, count: int = 50, max_den: int = 100):
    """Deterministic reduced non-convergents with den <= max_den near alpha:
    for q ascending, the two integers bracketing q*alpha."""
    conv = set()
    for num, den in alpha.convergent_pairs():
        if den > max_den:
            break
        conv.add((num, den))
    out = []
    for q in range(2, max_den + 1):
        m = floor_scaled(alpha, q)
        for p in (m, m + 1):
            if gcd(p, q) != 1 or (p, q) in conv:
                continue
            out.append(F(p, q))
            if len(out) == count:
                return out
    raise AssertionError(f"only {len(out)} candidates below denominator {max_den}")


# grid used by criteria 1 and 3: every reduced alpha with den <= 30 in [0, 2)
# against every non-integer reduced x with den <= 30 in (-1, 3)
def grid_pairs():
    alphas = [(n, d) for d in range(1, 31) for n in range(0, 2 * d)
              if gcd(n, d) == 1]
    xs = [(n, d) for d in range(2, 31) for n in range(-d + 1, 3 * d)
          if gcd(abs(n), d) == 1]
    return alphas, xs


def test_criterion_1_equivalence_sweep(capsys):
    report = verify_sweep(30, 30, (F(0), F(2)))
    alphas, xs = grid_pairs()
    expected_total = len(alphas) * len(xs)
    ok = (report["inconsistencies"] == []
          and report["totalChecked"] == expected_total == 616_048
          and report["elapsed"] < 120)
    announce(capsys, f"criterion 1: {'PASS' if ok else 'FAIL'} "
                     f"(sweep den<=30 on 0..2: {report['totalChecked']} pairs, "
                     f"{len(report['inconsistencies'])} inconsistencies, "
                     f"{report['elapsed']:.2f}s)")
    assert report["inconsistencies"] == []
    assert report["totalChecked"] == expected_total == 616_048
    assert report["elapsed"] < 120


def test_criterion_2_irrational_equivalence(capsys):
    failures = []
    checked_true = checked_false = 0
    for alpha in stream_alphas():
        convs = convergents(cf_of_real(alpha), 10)
        for conv in convs:
            if conv.den == 1:
                continue
            report = theorem_u_check(conv.value, alpha)
            checked_true += 1
            if not (report.stmt_i and report.stmt_iii and report.stmt_iv
                    and report.stmt_v and report.consistent):
                failures.append((alpha.describe(), str(conv)))
        for x in nonconvergents_near(alpha):
            report = theorem_u_check(x, alpha)
            checked_false += 1
            if (report.stmt_i or report.stmt_iii or report.stmt_iv
                    or report.stmt_v or not report.consistent):
                failures.append((alpha.describe(), f"{x}"))
    ok = not failures
    announce(capsys, f"criterion 2: {'PASS' if ok else 'FAIL'} "
                     f"({checked_true} convergent pairs all-true, "
                     f"{checked_false} non-convergent pairs all-false)")
    assert failures == []


def test_criterion_3_dual_route_agreement(capsys):
    alphas, xs = grid_pairs()
    mismatches = 0
    for p, q in alphas:
        for a, b in xs:
            if _pure.best_flag(a, b, p, q) != _pure.near_flag(a, b, p, q):
                mismatches += 1
    grid_count = len(alphas) * len(xs)

    stream_count = 0
    for alpha in stream_alphas():
        points = [c.value for c in convergents(cf_of_real(alpha), 10)
                  if c.den > 1]
        points += nonconvergents_near(alpha)
        for x in points:
            if is_best_approx_2nd(x, alpha) != is_nearby(x, alpha):
                mismatches += 1
            stream_count += 1

    # each route against its unpruned fraction-arithmetic reference, and the
    # two references against each other, on a dense subgrid
    sub_count = 0
    for alpha in reduced_fractions_in(F(0), F(1), 8, include_hi=False):
        for x in reduced_fractions_in(F(-1, 2), F(3, 2), 8):
            best, near = reference.best_approx(x, alpha), reference.nearby(x, alpha)
            if not is_best_approx_2nd(x, alpha) == best == near == is_nearby(x, alpha):
                mismatches += 1
            sub_count += 1

    ok = mismatches == 0
    announce(capsys, f"criterion 3: {'PASS' if ok else 'FAIL'} "
                     f"(routes agree on {grid_count} grid + {stream_count} "
                     f"stream + {sub_count} unpruned pairs, "
                     f"{mismatches} mismatches)")
    assert mismatches == 0


def test_criterion_4_nonoverlap(capsys):
    start = time.perf_counter()
    points = list(reduced_fractions_in(F(0), F(1), 50))
    independent_size = 1 + sum(1 for d in range(1, 51) for n in range(d)
                               if gcd(n, d) == 1)
    bad = 0
    pairs = 0
    for x, y in combinations(points, 2):
        pairs += 1
        rel = gap_relation(x, y)  # raises if the exact gap were negative
        det = x.numerator * y.denominator - x.denominator * y.numerator
        if (rel is GapRelation.TANGENT_EQUALITY) != (abs(det) == 1):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and len(points) == independent_size == 775 and elapsed < 60
    announce(capsys, f"criterion 4: {'PASS' if ok else 'FAIL'} "
                     f"({len(points)} points, {pairs} pairs, {bad} gap "
                     f"violations, {elapsed:.2f}s)")
    assert len(points) == independent_size == 775
    assert bad == 0
    assert elapsed < 60


def test_criterion_5_tangent_radius_consistency(capsys):
    points = list(reduced_fractions_in(F(0), F(1), 20))
    bad = 0
    for x in points:
        a, b = x.numerator, x.denominator
        r = F(1, 2 * b * b)
        for alpha in points:
            direct = F(b * alpha - a) ** 2 / 2
            if not (generic_tangent_radius(x, r, alpha) == direct
                    == tangent_horocircle_radius(alpha, x)):
                bad += 1
    ok = bad == 0
    announce(capsys, f"criterion 5: {'PASS' if ok else 'FAIL'} "
                     f"({len(points)}x{len(points)} base/alpha pairs, "
                     f"{bad} disagreements)")
    assert bad == 0


def test_criterion_6_convergent_identities(capsys):
    bad = []
    expansions = 0
    for q in range(1, 101):
        for p in range(-200, 201):
            if gcd(abs(p), q) != 1:
                continue
            x = F(p, q)
            cf = cf_of_rational(x)
            convs = convergents(cf, cf.length)
            expansions += 1
            if value(cf) != x:
                bad.append(("roundtrip", x))
            if any(abs(c2.num * c1.den - c1.num * c2.den) != 1
                   for c1, c2 in zip(convs, convs[1:])):
                bad.append(("determinant", x))
            if not convergent_ordering_check(convs, x):
                bad.append(("interleaving", x))
    for alpha in stream_alphas():
        convs = convergents(cf_of_real(alpha), 30)
        if any(abs(c2.num * c1.den - c1.num * c2.den) != 1
               for c1, c2 in zip(convs, convs[1:])):
            bad.append(("determinant", alpha.describe()))
        if not convergent_ordering_check(convs, alpha):
            bad.append(("interleaving", alpha.describe()))
    ok = not bad
    announce(capsys, f"criterion 6: {'PASS' if ok else 'FAIL'} "
                     f"({expansions} rational expansions + 3 streams at 30 "
                     f"terms, {len(bad)} identity failures)")
    assert bad == []


def test_criterion_7_integer_edge_case(capsys):
    bad = []
    for m in range(-2, 3):
        alpha = m + F(3, 5)
        report = theorem_u_check(F(m), alpha)
        if not (report.stmt_i and report.is_integer and report.consistent):
            bad.append(m)
        if is_best_approx_2nd(F(m), alpha):
            bad.append(m)
    ok = not bad
    announce(capsys, f"criterion 7: {'PASS' if ok else 'FAIL'} "
                     f"(integer convergents of m + 3/5 for m in -2..2 are "
                     f"never best approximations; {len(bad)} exceptions)")
    assert bad == []


def test_criterion_8_penultimate_construction(capsys):
    # Checked property, for every non-integer rational alpha: with convergents
    # A_{N-1}/B_{N-1}, A_N/B_N and (u, v) = (A_N - A_{N-1}, B_N - B_{N-1}),
    # u/v is reduced, B_{N-1} < v < B_N, and alpha lies strictly between
    # A_{N-1}/B_{N-1} and u/v.
    #
    # The lower bound B_{N-1} < v is false for alpha = 1/2 = [0;2]: there
    # N = 1 and v = B_1 - B_0 = 1 = B_0.  Every other expansion satisfies it
    # (for N >= 2, B_N = b_N B_{N-1} + B_{N-2} with b_N >= 2 gives
    # v - B_{N-1} = (b_N - 2) B_{N-1} + B_{N-2} + (B_{N-1} - B_{N-2}) > 0;
    # for N = 1 it needs b_1 >= 3).  This test states the property as is and
    # stays red on the boundary case rather than weakening the bound.
    violations = []
    checked = 0
    for alpha in reduced_fractions_in(F(0), F(1), 50,
                                      include_lo=False, include_hi=False):
        prev, last, u, v = penultimate_pair(alpha)
        checked += 1
        lo, hi = sorted((prev.value, F(u, v)))
        if not (gcd(abs(u), v) == 1 and prev.den < v < last.den
                and lo < alpha < hi):
            violations.append(alpha)
    ok = not violations
    announce(capsys, f"criterion 8: {'PASS' if ok else 'FAIL'} "
                     f"({checked} expansions; violations: "
                     f"{[str(a) for a in violations]}; expected red, the "
                     f"denominator lower bound fails at two-term expansions "
                     f"with final coefficient 2)")
    assert violations == []


def test_criterion_9_rendering(capsys):
    spec = RenderSpec(window=(F(0), F(1)), max_den=5)
    first = render_ford_field(spec)
    second = render_ford_field(spec)
    count = sum(1 for e in ET.fromstring(first).iter()
                if e.tag.endswith("circle"))
    witness_svg = render_statement_v(F(1, 2), F(3, 5), RenderSpec())
    (meta,) = [e for e in ET.fromstring(witness_svg).iter()
               if e.tag.endswith("metadata")]
    witness = json.loads(meta.text)["witness"]
    ok = count == 11 and first == second and witness == "2/3"
    announce(capsys, f"criterion 9: {'PASS' if ok else 'FAIL'} "
                     f"({count} circles, byte-identical={first == second}, "
                     f"witness={witness})")
    assert count == 11
    assert first == second
    assert witness == "2/3"
