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
from typing import Sequence
from xml.sax.saxutils import escape

from .geometry import ford_radius
from .rational import reduced_fractions_in
from .real import CFStream, ExactReal, RationalLike, RealNumber, _as_fraction, as_real
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
    scaled = round(_as_fraction(x) * 10**6)
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


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _line(x1: Fraction, y1: Fraction, x2: Fraction, y2: Fraction,
          stroke: str, width: int) -> str:
    return (f'<line x1="{fmt6(x1)}" y1="{fmt6(y1)}" x2="{fmt6(x2)}" y2="{fmt6(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _figure(spec: RenderSpec, field_stroke: str, highlights: Sequence[Fraction] = (),
            segment: tuple[Fraction, Fraction] | None = None,
            marker: RealNumber | None = None, **meta) -> str:
    """One SVG document: the axis, the Ford field of the spec in field_stroke,
    the optional segment on the axis, the highlighted circles, the optional
    marker at a real, and meta plus the window, maxDen and widthPx as
    metadata.  The height fits the largest circle drawn."""
    lo, hi = spec.window
    field = list(reduced_fractions_in(lo, hi, spec.max_den))
    width = _as_fraction(spec.width_px)
    scale = width / (hi - lo)
    # the field is ordered by denominator, so its first circle is its largest
    r_max = max(map(ford_radius, [*field[:1], *highlights]), default=Fraction(1, 2))
    height = 2 * r_max * scale

    def x_px(x: Fraction) -> Fraction:
        return (x - lo) * scale

    def circle(base: Fraction, stroke: str) -> str:
        r = ford_radius(base) * scale
        return (f'<circle cx="{fmt6(x_px(base))}" cy="{fmt6(height - r)}" '
                f'r="{fmt6(r)}" fill="none" stroke="{stroke}" stroke-width="1"/>')

    parts = [_line(Fraction(0), height, width, height, AXIS_STROKE, 1)]
    parts += [circle(x, field_stroke) for x in field]
    if segment is not None:
        parts.append(_line(x_px(segment[0]), height, x_px(segment[1]), height,
                           MARKER_STROKE, 3))
    parts += [circle(x, HIGHLIGHT_STROKE) for x in highlights]
    if marker is not None:
        px = x_px(_approx_for_pixels(marker))
        parts.append(_line(px, height - height / 30, px, height, MARKER_STROKE, 2))
    meta.update(window=[_frac_str(lo), _frac_str(hi)], maxDen=spec.max_den,
                widthPx=spec.width_px)
    text = escape(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    w, h = fmt6(width), fmt6(height)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
            f'width="{w}" height="{h}">\n<metadata>{text}</metadata>\n'
            + "\n".join(parts) + "\n</svg>\n")


def render_ford_field(spec: RenderSpec) -> str:
    """One circle per reduced fraction in the window up to the denominator cap."""
    spec.validate()
    return _figure(spec, HIGHLIGHT_STROKE, kind="field")


def render_chain(alpha: RealNumber | RationalLike, depth: int, spec: RenderSpec) -> str:
    """Muted Ford field plus the first depth chain circles in black."""
    spec.validate()
    alpha = as_real(alpha)
    chain = [c.base for c in cf_chain(alpha, depth)]
    return _figure(spec, FIELD_STROKE, chain, marker=alpha, kind="chain",
                   alpha=alpha.describe(), depth=depth,
                   chain=[_frac_str(x) for x in chain])


def render_statement_v(x: RationalLike, alpha: RealNumber | RationalLike,
                       spec: RenderSpec) -> str:
    """The tangent-witness picture: C_x, C_y, the interval (x, y), the marker."""
    spec.validate()
    x = _as_fraction(x)
    alpha = as_real(alpha)
    witness = statement_v_witness(x, alpha)
    if witness is None:
        raise ValueError("statement (v) fails for this pair")
    return _figure(spec, FIELD_STROKE, [x, witness], segment=(x, witness), marker=alpha,
                   kind="witness", x=_frac_str(x), alpha=alpha.describe(),
                   witness=_frac_str(witness))
