"""Deterministic SVG rendering of Ford circle pictures.

Geometry stays exact (fractions) all the way to the final formatting step,
where every coordinate is written with exactly six decimal places (ties to
even), so identical inputs give byte-identical documents and visual tangency
survives rendering.  Mathematical x in [lo, hi] maps to [0, widthPx]; y uses
the same scale and is inverted so the real axis sits at the bottom edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable
from xml.sax.saxutils import escape

from .geometry import ford_radius
from .rational import reduced_fractions_in
from .real import CFStream, ExactReal, RationalLike, RealNumber, as_real
from .verify import cf_chain, statement_v_witness

#: Stroke colors: muted background field, highlighted foreground, axis, marker.
FIELD_STROKE = "#b8b8b8"
HIGHLIGHT_STROKE = "#000000"
AXIS_STROKE = "#888888"
MARKER_STROKE = "#c03030"

#: Stream-valued markers are placed within 1/MARKER_DEN of the value, in math units.
MARKER_DEN = 10**9


@dataclass(frozen=True)
class RenderSpec:
    window: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))
    max_den: int = 20
    width_px: int = 800

    def validate(self) -> None:
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("invalid render spec: window must satisfy lo < hi")
        if self.max_den < 1:
            raise ValueError("invalid render spec: maxDen must be >= 1")
        if self.width_px < 64:
            raise ValueError("invalid render spec: widthPx must be >= 64")


def fmt6(x: RationalLike) -> str:
    """Exact fixed 6-decimal rendering of a rational, ties to even."""
    scaled = round(Fraction(x) * 10**6)
    digits = f"{abs(scaled):07d}"
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-6]}.{digits[-6:]}"


def _approx_for_pixels(alpha: RealNumber) -> Fraction:
    """A rational stand-in for alpha, exact or within 1/MARKER_DEN: the
    midpoint of the first convergent bracket narrower than that, as the
    bracket (a0/b0, a1/b1) is 1/(b0*b1) wide."""
    if isinstance(alpha, ExactReal):
        return alpha.value
    assert isinstance(alpha, CFStream)
    for (a0, b0), (a1, b1) in alpha.brackets():
        if b0 * b1 > MARKER_DEN:
            return Fraction(a0 * b1 + a1 * b0, 2 * b0 * b1)
    raise AssertionError("unreachable: brackets() never returns normally")


class _Canvas:
    """Pixel mapping and element accumulation for one SVG document."""

    def __init__(self, spec: RenderSpec, radii: Iterable[Fraction]):
        lo, hi = spec.window
        self.lo = lo
        self.scale = Fraction(spec.width_px) / (hi - lo)
        r_max = max(radii, default=Fraction(1, 2))
        self.height = 2 * r_max * self.scale
        self.width = Fraction(spec.width_px)
        self.parts: list[str] = []

    def x_px(self, x: Fraction) -> Fraction:
        return (x - self.lo) * self.scale

    def add_circle(self, base: Fraction, radius: Fraction, stroke: str) -> None:
        r = radius * self.scale
        self.parts.append(
            f'<circle cx="{fmt6(self.x_px(base))}" cy="{fmt6(self.height - r)}" '
            f'r="{fmt6(r)}" fill="none" stroke="{stroke}" stroke-width="1"/>'
        )

    def add_axis(self) -> None:
        y = fmt6(self.height)
        self.parts.append(
            f'<line x1="0.000000" y1="{y}" x2="{fmt6(self.width)}" y2="{y}" '
            f'stroke="{AXIS_STROKE}" stroke-width="1"/>'
        )

    def add_segment(self, x1: Fraction, x2: Fraction, stroke: str) -> None:
        y = fmt6(self.height)
        self.parts.append(
            f'<line x1="{fmt6(self.x_px(x1))}" y1="{y}" x2="{fmt6(self.x_px(x2))}" '
            f'y2="{y}" stroke="{stroke}" stroke-width="3"/>'
        )

    def add_marker(self, x: Fraction) -> None:
        px = fmt6(self.x_px(x))
        y0 = fmt6(self.height - self.height / 30)
        y1 = fmt6(self.height)
        self.parts.append(
            f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" '
            f'stroke="{MARKER_STROKE}" stroke-width="2"/>'
        )

    def document(self, metadata: dict) -> str:
        meta = escape(json.dumps(metadata, sort_keys=True, separators=(",", ":")))
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {fmt6(self.width)} {fmt6(self.height)}" '
            f'width="{fmt6(self.width)}" height="{fmt6(self.height)}">\n'
            f"<metadata>{meta}</metadata>\n{body}\n</svg>\n"
        )


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _field(spec: RenderSpec) -> list[tuple[Fraction, Fraction]]:
    """(base, radius) for the Ford field, ordered by denominator then numerator."""
    lo, hi = spec.window
    return [
        (x, ford_radius(x))
        for x in reduced_fractions_in(lo, hi, spec.max_den)
    ]


def render_ford_field(spec: RenderSpec) -> str:
    """One circle per reduced fraction in the window up to the denominator cap."""
    spec.validate()
    field = _field(spec)
    canvas = _Canvas(spec, (r for _, r in field))
    canvas.add_axis()
    for base, radius in field:
        canvas.add_circle(base, radius, HIGHLIGHT_STROKE)
    lo, hi = spec.window
    return canvas.document({
        "kind": "field",
        "window": [_frac_str(lo), _frac_str(hi)],
        "maxDen": spec.max_den,
        "widthPx": spec.width_px,
    })


def render_chain(alpha: RealNumber | RationalLike, depth: int, spec: RenderSpec) -> str:
    """Muted Ford field plus the first depth chain circles in black."""
    spec.validate()
    alpha = as_real(alpha)
    chain = cf_chain(alpha, depth)
    field = _field(spec)
    radii = [r for _, r in field] + [c.radius for c in chain]
    canvas = _Canvas(spec, radii)
    canvas.add_axis()
    for base, radius in field:
        canvas.add_circle(base, radius, FIELD_STROKE)
    for circle in chain:
        canvas.add_circle(circle.base, circle.radius, HIGHLIGHT_STROKE)
    canvas.add_marker(_approx_for_pixels(alpha))
    lo, hi = spec.window
    return canvas.document({
        "kind": "chain",
        "alpha": alpha.describe(),
        "depth": depth,
        "chain": [_frac_str(c.base) for c in chain],
        "window": [_frac_str(lo), _frac_str(hi)],
        "maxDen": spec.max_den,
        "widthPx": spec.width_px,
    })


def render_statement_v(x: RationalLike, alpha: RealNumber | RationalLike,
                       spec: RenderSpec) -> str:
    """The tangent-witness picture: C_x, C_y, the interval (x, y), the marker."""
    spec.validate()
    x = Fraction(x)
    alpha = as_real(alpha)
    witness = statement_v_witness(x, alpha)
    if witness is None:
        raise ValueError("statement (v) fails for this pair")
    field = _field(spec)
    cx, cy = ford_radius(x), ford_radius(witness)
    canvas = _Canvas(spec, [r for _, r in field] + [cx, cy])
    canvas.add_axis()
    for base, radius in field:
        canvas.add_circle(base, radius, FIELD_STROKE)
    canvas.add_segment(x, witness, MARKER_STROKE)
    canvas.add_circle(x, cx, HIGHLIGHT_STROKE)
    canvas.add_circle(witness, cy, HIGHLIGHT_STROKE)
    canvas.add_marker(_approx_for_pixels(alpha))
    lo, hi = spec.window
    return canvas.document({
        "kind": "witness",
        "x": _frac_str(x),
        "alpha": alpha.describe(),
        "witness": _frac_str(witness),
        "window": [_frac_str(lo), _frac_str(hi)],
        "maxDen": spec.max_den,
        "widthPx": spec.width_px,
    })
