"""SVG rendering: determinism, exact formatting, and figure contents."""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from math import gcd
from xml.sax.saxutils import escape

import pytest
from hypothesis import assume, example, given, strategies as st

from fordcircles import (
    CFStream,
    PeriodicCoefficients,
    RenderSpec,
    compare_real,
    fmt6,
    golden_ratio,
    reduced_fractions_in,
    render_chain,
    render_ford_field,
    render_statement_v,
    sqrt_real,
)
from fordcircles import render
from fordcircles.render import FIELD_STROKE, HIGHLIGHT_STROKE, MARKER_STROKE, _fmt6
from test_exact_core import bracket_twin


def farey_ascending(n: int):
    """Independent Farey enumerator on [0, 1] via the neighbor recurrence."""
    a, b, c, d = 0, 1, 1, n
    yield F(0, 1)
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield F(a, b)


def circles(svg: str, stroke: str | None = None):
    root = ET.fromstring(svg)
    out = [e for e in root.iter() if e.tag.endswith("circle")]
    if stroke is not None:
        out = [e for e in out if e.get("stroke") == stroke]
    return out


def metadata(svg: str) -> dict:
    root = ET.fromstring(svg)
    (meta,) = [e for e in root.iter() if e.tag.endswith("metadata")]
    return json.loads(meta.text)


class TestFmt6:
    @pytest.mark.parametrize("x,want", [
        (F(1, 3), "0.333333"),
        (F(2, 3), "0.666667"),
        (F(1, 2), "0.500000"),
        (7, "7.000000"),
        (F(-1, 3), "-0.333333"),
        (F(800), "800.000000"),
    ])
    def test_basic(self, x, want):
        assert fmt6(x) == want

    def test_ties_to_even(self):
        unit = F(1, 2 * 10**6)
        assert fmt6(unit) == "0.000000"
        assert fmt6(3 * unit) == "0.000002"
        assert fmt6(5 * unit) == "0.000002"
        assert fmt6(7 * unit) == "0.000004"

    def test_no_negative_zero(self):
        assert fmt6(F(-1, 10**7)) == "0.000000"


def reference_fmt6(n: int, d: int) -> str:
    """Six decimals of n/d from Fraction's own rounding (half to even)."""
    scaled = round(F(n, d) * 10**6)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{abs(scaled) // 10**6}.{abs(scaled) % 10**6:06d}"


class TestIntegerFmt6:
    """_fmt6(n, d) rounds n/d from a divmod of the unreduced pair; it must
    agree with Fraction's rounding whatever factor n and d share."""

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9), st.integers(1, 10**4))
    def test_matches_fraction_rounding(self, n, d, k):
        assert _fmt6(n, d) == reference_fmt6(n, d)
        assert _fmt6(k * n, k * d) == reference_fmt6(n, d)
        assert _fmt6(n, d) != "-0.000000"

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.sampled_from([1, -1]))
    def test_exact_ties(self, j, k, sign):
        # (2j+1) / (2*10**6) lies halfway between two six-decimal values
        n, d = sign * k * (2 * j + 1), k * 2 * 10**6
        assert _fmt6(n, d) == reference_fmt6(n, d)
        assert int(_fmt6(n, d).replace(".", "")) % 2 == 0

    @given(st.integers(1, 10**6), st.integers(0, 10**9), st.integers(1, 10**4))
    def test_no_negative_zero(self, n, extra, k):
        # -n/d lies at most half a unit of the sixth place below 0 (a tie
        # when extra == 0), so it rounds to an unsigned zero
        d = 2 * 10**6 * n + extra
        assert _fmt6(-k * n, k * d) == "0.000000"


def reduced_by_filter(lo: F, hi: F, max_den: int) -> list[F]:
    """The reduced fractions in [lo, hi] with denominator <= max_den, in
    (denominator, numerator) order, by comparing every candidate."""
    return [F(a, b) for b in range(1, max_den + 1)
            for a in range(int(lo * b) - 2, int(hi * b) + 3)
            if gcd(a, b) == 1 and lo <= F(a, b) <= hi]


def exact_circles(svg: str, spec: RenderSpec) -> list[tuple[str, str, str]]:
    """(cx, cy, r) of every circle the figure must draw, in document order:
    the field, then the highlights its metadata names, each coordinate
    formatted from its exact Fraction value by Fraction's own rounding."""
    meta = metadata(svg)
    highlights = {"field": [], "chain": meta.get("chain", []),
                  "witness": [meta.get("x"), meta.get("witness")]}[meta["kind"]]
    lo, hi = spec.window
    drawn = reduced_by_filter(lo, hi, spec.max_den) + [F(x) for x in highlights]
    scale = F(spec.width_px) / (hi - lo)
    height = scale / min((x.denominator for x in drawn), default=1) ** 2
    want = []
    for x in drawn:
        r = scale / (2 * x.denominator ** 2)
        want.append(tuple(reference_fmt6(v.numerator, v.denominator)
                          for v in ((x - lo) * scale, height - r, r)))
    return want


# lo = -3/(128*10**6) at 64 px per unit puts every circle whose x*64*10**6
# is an integer exactly half a unit of the sixth decimal right of it: ties
TIE_LO = F(-3, 128 * 10**6)


@st.composite
def figures(draw):
    lo = draw(st.fractions(min_value=-6, max_value=6, max_denominator=1000))
    width = draw(st.fractions(min_value=F(1, 40), max_value=3, max_denominator=40))
    spec = RenderSpec(window=(lo, lo + width), max_den=draw(st.integers(1, 25)),
                      width_px=draw(st.integers(64, 2000)))
    kind = draw(st.sampled_from(["field", "chain", "witness"]))
    if kind == "field":
        return kind, spec, ()
    if kind == "chain":
        alpha = draw(st.sampled_from([golden_ratio(), sqrt_real(2)])
                     | st.fractions(min_value=-8, max_value=8, max_denominator=60))
        return kind, spec, (alpha, draw(st.integers(1, 4)))
    # alpha within 1/(2*b*b) of x, on either side, has a tangent witness
    x = draw(st.fractions(min_value=-8, max_value=8, max_denominator=30))
    t = F(draw(st.integers(-99, 99)), 100)
    return kind, spec, (x, x + t / (2 * x.denominator ** 2))


class TestExactCoordinates:
    """Every cx, cy and r of every figure, held against the exact Fraction
    coordinate rounded by Fraction: random windows and widths, highlights
    outside the window, circles less than a pixel from the edge or left of
    it, and exact ties of the sixth decimal."""

    @given(figures())
    @example(("field", RenderSpec(window=(TIE_LO, TIE_LO + 2), max_den=8, width_px=128), ()))
    @example(("chain", RenderSpec(window=(-1 - TIE_LO, -TIE_LO), max_den=8, width_px=64),
              (F(-1), 1)))  # a tie left of the window: -1 at -0.0000015 px
    @example(("field", RenderSpec(window=(F(-1, 10**5), F(1)), max_den=9, width_px=64), ()))
    @example(("chain", RenderSpec(window=(F(-1), F(2)), max_den=5, width_px=64),
              (F(-22, 7), 3)))  # -4 and -3 lie left of the window
    @example(("witness", RenderSpec(window=(F(2, 3), F(4, 5)), max_den=12, width_px=97),
              (F(3, 4), F(7, 9))))
    def test_matches_fraction_rounding(self, figure):
        kind, spec, args = figure
        draw = {"field": render_ford_field, "chain": render_chain,
                "witness": render_statement_v}[kind]
        try:
            svg = draw(*args, spec)
        except ValueError:
            assume(False)  # a chain deeper than a rational's expansion
        got = [(e.get("cx"), e.get("cy"), e.get("r")) for e in circles(svg)]
        assert got == exact_circles(svg, spec)

    def test_the_tie_window_has_ties(self):
        # 1/1 sits at 64.0000015 px, a tie rounded to the even 64.000002
        svg = render_ford_field(RenderSpec(window=(TIE_LO, TIE_LO + 2), max_den=8,
                                           width_px=128))
        cxs = {e.get("cx") for e in circles(svg)}
        assert {"0.000002", "32.000002", "64.000002"} <= cxs
        # and the chain of -1 draws -1 at -0.0000015 px, rounded to -0.000002
        svg = render_chain(F(-1), 1, RenderSpec(window=(-1 - TIE_LO, -TIE_LO), width_px=64))
        assert circles(svg, HIGHLIGHT_STROKE)[0].get("cx") == "-0.000002"


def tie_runs(spec: RenderSpec):
    """(b, step, den, shift) of each denominator b of a field, computed as
    render's circles does: the circle a/b has floor(cx*10**6 + 1/2) equal
    to the floor of (a*step - shift)/den, a tie when den divides it."""
    lo, hi = spec.window
    scale = F(spec.width_px) / (hi - lo)
    ln, ld, sn, sd = lo.numerator, lo.denominator, scale.numerator, scale.denominator
    step = 2 * ld * sn * 10**6
    return [(b, step, 2 * b * ld * sd, 2 * ln * b * sn * 10**6 - b * ld * sd)
            for b in range(1, spec.max_den + 1)]


class TestTieRule:
    """A run at b can hold a tie only if gcd(step, den) divides shift: as a
    ranges over the integers, a*step - shift stays in one class modulo that
    gcd, the class of -shift."""

    @given(st.fractions(min_value=-6, max_value=6, max_denominator=10**6),
           st.fractions(min_value=F(1, 40), max_value=3, max_denominator=40),
           st.integers(64, 2000), st.integers(1, 25))
    @example(TIE_LO, F(2), 128, 1)
    @example(TIE_LO, F(2), 128, 8)
    def test_no_tie_where_the_rule_rules_one_out(self, lo, width, width_px, b):
        spec = RenderSpec(window=(lo, lo + width), max_den=b, width_px=width_px)
        _, step, den, shift = tie_runs(spec)[-1]
        ties = [a for a in range(int(lo * b) - 1, int((lo + width) * b) + 2)
                if (a * step - shift) % den == 0]
        if shift % gcd(step, den):
            assert ties == []

    def test_the_tie_window_flags_a_run(self):
        spec = RenderSpec(window=(TIE_LO, TIE_LO + 2), max_den=8, width_px=128)
        flagged = [b for b, step, den, shift in tie_runs(spec) if not shift % gcd(step, den)]
        assert flagged
        # and a circle of a flagged run ties, so the tie branch rounds it
        assert any((a * step - shift) % den == 0
                   for b, step, den, shift in tie_runs(spec) if b in flagged
                   for a in range(0, 2 * b + 1))


class TestFormattingCost:
    def test_two_fmt6_calls_per_denominator(self, monkeypatch):
        # a field's circles share their y and radius per denominator, and
        # each cx is one division: _fmt6 formats the shared part only
        calls = []

        def counted(n, d):
            calls.append((n, d))
            return _fmt6(n, d)

        monkeypatch.setattr(render, "_fmt6", counted)
        lo, hi = F(-7, 3), F(-4, 3)
        svg = render_ford_field(RenderSpec(window=(lo, hi), max_den=60, width_px=801))
        dens = {x.denominator for x in reduced_fractions_in(lo, hi, 60)}
        assert len(circles(svg)) > 10 * len(dens)
        # the axis line's four coordinates and the document's width and height
        assert len(calls) <= 2 * len(dens) + 6


class TestFordField:
    @pytest.mark.parametrize("window,max_den,count", [
        ((F(0), F(1)), 5, 11),
        ((F(0), F(1)), 1, 2),
        ((F(0), F(2)), 2, 5),
    ])
    def test_circle_counts(self, window, max_den, count):
        svg = render_ford_field(RenderSpec(window=window, max_den=max_den))
        assert len(circles(svg)) == count

    def test_count_matches_independent_enumerator(self):
        for n in (1, 2, 3, 5, 8, 13):
            svg = render_ford_field(RenderSpec(max_den=n))
            assert len(circles(svg)) == len(list(farey_ascending(n)))

    def test_byte_identical(self):
        spec = RenderSpec(window=(F(0), F(1)), max_den=7, width_px=640)
        assert render_ford_field(spec) == render_ford_field(spec)

    def test_positions_and_radii_exact(self):
        spec = RenderSpec(window=(F(0), F(1)), max_den=6, width_px=800)
        svg = render_ford_field(spec)
        scale = F(800)
        expected = {
            (fmt6(x * scale), fmt6(scale / (2 * x.denominator ** 2)))
            for x in farey_ascending(6)
        }
        got = {(e.get("cx"), e.get("r")) for e in circles(svg)}
        assert got == expected

    def test_document_order_by_den_then_num(self):
        spec = RenderSpec(window=(F(0), F(1)), max_den=6, width_px=800)
        svg = render_ford_field(spec)
        by_cx = {fmt6(x * 800): x for x in farey_ascending(6)}
        order = [by_cx[e.get("cx")] for e in circles(svg)]
        assert order == sorted(order, key=lambda x: (x.denominator, x.numerator))

    def test_metadata(self):
        svg = render_ford_field(RenderSpec(max_den=5))
        assert metadata(svg) == {
            "kind": "field", "window": ["0/1", "1/1"], "maxDen": 5,
            "widthPx": 800,
        }

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="lo < hi"):
            render_ford_field(RenderSpec(window=(F(1), F(0))))
        with pytest.raises(ValueError, match="maxDen"):
            render_ford_field(RenderSpec(max_den=0))
        with pytest.raises(ValueError, match="widthPx"):
            render_ford_field(RenderSpec(width_px=32))
        # a non-integer cap or width is refused by validate, before any drawing
        with pytest.raises(TypeError, match="widthPx must be an integer"):
            render_ford_field(RenderSpec(width_px=F(800)))
        with pytest.raises(TypeError, match="maxDen must be an integer"):
            render_ford_field(RenderSpec(max_den=F(3)))
        with pytest.raises(TypeError, match="maxDen must be an integer"):
            RenderSpec(max_den=F(3)).validate()


class TestChain:
    def test_rational_chain_highlights(self):
        svg = render_chain(F(3, 5), 4, RenderSpec())
        black = circles(svg, HIGHLIGHT_STROKE)
        assert {e.get("cx") for e in black} == {
            fmt6(F(0)), fmt6(F(800)), fmt6(F(400)), fmt6(F(480)),
        }
        assert metadata(svg)["chain"] == ["0/1", "1/1", "1/2", "3/5"]
        assert len(circles(svg, FIELD_STROKE)) == len(list(farey_ascending(20)))

    def test_golden_depth_one(self):
        svg = render_chain(golden_ratio(), 1, RenderSpec(window=(F(0), F(2))))
        black = circles(svg, HIGHLIGHT_STROKE)
        assert [e.get("cx") for e in black] == [fmt6(F(400))]
        meta = metadata(svg)
        assert meta["alpha"] == "golden"
        assert meta["chain"] == ["1/1"]

    def test_sqrt2_chain(self):
        svg = render_chain(sqrt_real(2), 3, RenderSpec(window=(F(1), F(2))))
        black = circles(svg, HIGHLIGHT_STROKE)
        # bases 1, 3/2, 7/5 under x -> (x - 1) * 800
        assert [e.get("cx") for e in black] == [
            fmt6(F(0)), fmt6(F(400)), fmt6(F(320)),
        ]

    def test_marker_present(self):
        svg = render_chain(golden_ratio(), 2, RenderSpec(window=(F(0), F(2))))
        root = ET.fromstring(svg)
        markers = [e for e in root.iter()
                   if e.tag.endswith("line") and e.get("stroke") == MARKER_STROKE]
        assert len(markers) == 1
        # phi = 1.6180339887...; window [0,2] at 800px puts it at 647.2135...
        assert markers[0].get("x1").startswith("647.213")

    def test_depth_exhaustion(self):
        with pytest.raises(ValueError, match="expansion exhausted"):
            render_chain(F(3, 5), 5, RenderSpec())

    def test_byte_identical(self):
        spec = RenderSpec(window=(F(1), F(2)), max_den=12)
        assert render_chain(sqrt_real(2), 4, spec) == \
            render_chain(sqrt_real(2), 4, spec)


class TestStatementV:
    def test_witness_metadata(self):
        svg = render_statement_v(F(1, 2), F(3, 5), RenderSpec())
        meta = metadata(svg)
        assert meta["kind"] == "witness"
        assert meta["x"] == "1/2"
        assert meta["witness"] == "2/3"
        black = circles(svg, HIGHLIGHT_STROKE)
        assert {e.get("cx") for e in black} == {fmt6(F(400)), fmt6(F(1600, 3))}

    def test_alpha_equals_x_branch(self):
        svg = render_statement_v(F(1, 2), F(1, 2), RenderSpec())
        meta = metadata(svg)
        assert meta["witness"] == "2/3"
        root = ET.fromstring(svg)
        markers = [e for e in root.iter()
                   if e.tag.endswith("line") and e.get("stroke") == MARKER_STROKE
                   and e.get("stroke-width") == "2"]
        assert [m.get("x1") for m in markers] == [fmt6(F(400))]

    def test_segment_spans_interval(self):
        svg = render_statement_v(F(1, 2), F(3, 5), RenderSpec())
        root = ET.fromstring(svg)
        segs = [e for e in root.iter()
                if e.tag.endswith("line") and e.get("stroke") == MARKER_STROKE
                and e.get("stroke-width") == "3"]
        (seg,) = segs
        assert {seg.get("x1"), seg.get("x2")} == {fmt6(F(400)), fmt6(F(1600, 3))}

    def test_no_witness_raises(self):
        with pytest.raises(ValueError, match=r"statement \(v\) fails for this pair"):
            render_statement_v(F(1, 3), F(3, 5), RenderSpec())

    def test_stream_alpha(self):
        svg = render_statement_v(F(3, 2), golden_ratio(),
                                 RenderSpec(window=(F(1), F(2))))
        assert metadata(svg)["witness"] == "5/3"

    def test_byte_identical(self):
        spec = RenderSpec()
        assert render_statement_v(F(1, 2), F(3, 5), spec) == \
            render_statement_v(F(1, 2), F(3, 5), spec)


class TestMetadataEscaping:
    """The metadata is escaped as xml.sax.saxutils.escape escapes it, which
    the package no longer imports."""

    LABEL = 'a<b>&"c'

    @pytest.mark.parametrize("draw", [
        lambda alpha: render_chain(alpha, 3, RenderSpec()),
        lambda alpha: render_statement_v(F(2, 5), alpha, RenderSpec()),
    ], ids=["chain", "witness"])
    def test_as_saxutils_escape(self, draw):
        alpha = CFStream(0, PeriodicCoefficients((2,)), label=self.LABEL)  # sqrt(2) - 1
        svg = draw(alpha)
        text = svg.split("<metadata>", 1)[1].split("</metadata>", 1)[0]
        meta = metadata(svg)
        assert meta["alpha"] == self.LABEL
        assert text == escape(json.dumps(meta, sort_keys=True, separators=(",", ":")))


class TestDeepTable:
    """The marker is the midpoint of the first bracket narrower than
    1/MARKER_DEN, read from bracket 1, so a stream whose table and mark a
    query took deep draws the same bytes as a fresh one."""

    @pytest.mark.parametrize("make, x, window", [
        (golden_ratio, F(8, 5), (F(1), F(2))),
        (lambda: sqrt_real(7), F(8, 3), (F(2), F(3))),
    ], ids=["golden", "sqrt7"])
    def test_same_bytes_as_a_fresh_twin(self, make, x, window):
        deep = bracket_twin(make())
        pair = next(pair for pair in deep.convergent_pairs() if pair[1] > 10**30)
        compare_real(deep, F(*pair))
        assert deep._mark > 60
        spec = RenderSpec(window=window, max_den=12)
        assert render_chain(deep, 5, spec) == render_chain(bracket_twin(make()), 5, spec)
        assert render_statement_v(x, deep, spec) == \
            render_statement_v(x, bracket_twin(make()), spec)


class TestPinnedDigests:
    """sha256 of six documents, recorded from the CLI commands
    `render field --max-den 30`, `render chain sqrt:2 --depth 6 --window 1..2`,
    `render chain 355/113 --depth 3`, `render witness 8/5 golden --window
    1..2`, `render witness 1/2 3/5` (a rational marker) and `render witness
    2/3 2/3` (alpha == x); any change to the exact geometry or the
    formatting shows here.  Those six windows start at an integer, so six
    more start at a fraction (a negative one among them), use odd widths (97
    and 801 px), cap the field at denominator 1, or mark the rational -22/7;
    they were recorded from the Fraction-per-circle renderer that preceded
    the integer one."""

    @pytest.mark.parametrize("figure,digest", [
        (lambda: render_ford_field(RenderSpec(max_den=30)),
         "f6109d58d92f957bd7ba82e3b14a08c9a7b86dc47f3d0a8898c85e5d3737819a"),
        (lambda: render_chain(sqrt_real(2), 6, RenderSpec(window=(F(1), F(2)))),
         "8794588c8cd631dc20e957450ae7a196529f65ebc9562cce20d41d8ce54b7d8d"),
        (lambda: render_chain(F(355, 113), 3, RenderSpec()),
         "b708cda610ac09aba3b7c1eb894533ccb39a6209af1ec2d14b7bfa7fb5bbbeda"),
        (lambda: render_statement_v(F(8, 5), golden_ratio(), RenderSpec(window=(F(1), F(2)))),
         "e965b53fdc575d7456d6a530b114634b19c8a5442150996a88211ddbeee058c2"),
        (lambda: render_statement_v(F(1, 2), F(3, 5), RenderSpec()),
         "bb1269564e6a86818713eab520b98a75fa5f8e160b285fe2f05b5342665261b7"),
        (lambda: render_statement_v(F(2, 3), F(2, 3), RenderSpec()),
         "cb50f21634562fc22f9795405ae68d00eccc74df71f85d2c5f4633f0446d1fe8"),
        (lambda: render_ford_field(RenderSpec(window=(F(-7, 3), F(-4, 3)), max_den=23)),
         "6837018d67278bd311364d3ad802364fc9c30f26a0479965db84e9346b8b6e04"),
        (lambda: render_ford_field(RenderSpec(window=(F(1, 4), F(5, 4)), max_den=9,
                                              width_px=97)),
         "2c6b8a30160f935cd185beb8a5715272318df5d172030f9cd28ad95f1be177cb"),
        (lambda: render_chain(golden_ratio(), 5, RenderSpec(window=(F(5, 7), F(45, 14)),
                                                            max_den=9, width_px=801)),
         "98bbafc5504f5842a8c3af52dcda1b64d3daaeaecbd6a24d1aa0cb3f06326c96"),
        (lambda: render_ford_field(RenderSpec(window=(F(-1), F(3, 2)), max_den=1)),
         "bb57b789a82f110e71690df0fbd60b212c4a91ed326b8295db281e2ed9d4365b"),
        (lambda: render_chain(F(-22, 7), 3, RenderSpec(window=(F(-7, 2), F(-3)), max_den=23)),
         "be778346269425cf5f8261b238b8791f2182b70941931e3eed4dc89d468ff273"),
        (lambda: render_statement_v(F(3, 4), F(7, 9), RenderSpec(window=(F(2, 3), F(4, 5)),
                                                                 max_den=12, width_px=97)),
         "9fb0ee855c465ed621d74ccdac674c0ee0766213c879f2e64830018c9e11eab4"),
    ], ids=["field", "chain-sqrt2", "chain-355_113", "witness-golden",
            "witness-rational", "witness-alpha-is-x", "field-negative-fractional",
            "field-width-97", "chain-golden-width-801", "field-max-den-1",
            "chain-neg-22_7", "witness-fractional-window"])
    def test_digest(self, figure, digest):
        assert hashlib.sha256(figure().encode()).hexdigest() == digest
