"""Deterministic SVG rendering of Ford circle pictures.

Geometry stays exact all the way to the final formatting step, where every
coordinate is written with exactly six decimal places (ties to even), so
identical inputs give byte-identical documents and visual tangency survives
rendering.  Mathematical x in [lo, hi] maps to [0, widthPx]; y uses the same
scale and is inverted so the real axis sits at the bottom edge.

Circles are computed in integers: the window end, the scale and the height
are each one ratio of integers per figure, so every circle coordinate is an
integer numerator over a common denominator, and the one rounding step is an
integer division.  The field is drawn a run of rational._reduced_runs (one
denominator) at a time: the y and radius are written once per run, and each
x costs one floor division of a numerator linear in the circle's numerator.
Whether a run can hold a tie of the sixth decimal is one gcd per run, so a
run that cannot pays no tie test per circle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from .rational import _reduced_runs
from .real import CFStream, ExactReal, RationalLike, RealNumber, _as_fraction, _as_int, as_real
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
        lo, hi = map(_as_fraction, self.window)
        if not lo < hi:
            raise ValueError("invalid render spec: window must satisfy lo < hi")
        if _spec_int(self.max_den, "maxDen") < 1:
            raise ValueError("invalid render spec: maxDen must be >= 1")
        if _spec_int(self.width_px, "widthPx") < 64:
            raise ValueError("invalid render spec: widthPx must be >= 64")


def _spec_int(value: int, name: str) -> int:
    """_as_int(value); a non-integer other than a float is refused by the
    field's name, not by operator.index's generic message."""
    try:
        return _as_int(value)
    except TypeError:
        if isinstance(value, float):
            raise
        raise TypeError(f"invalid render spec: {name} must be an integer, "
                        f"not {type(value).__name__}") from None


def fmt6(x: RationalLike) -> str:
    """Exact fixed 6-decimal rendering of a rational, ties to even."""
    x = _as_fraction(x)
    return _fmt6(x.numerator, x.denominator)


def _fmt6(n: int, d: int) -> str:
    """fmt6 of n/d for integers n and d >= 1, not necessarily coprime.  The
    floor and remainder of n*10**6 over d round half to even exactly as
    Fraction.__round__ does, whatever common factor n and d share."""
    scaled, rem = divmod(n * 10**6, d)
    if 2 * rem > d or (2 * rem == d and scaled & 1):
        scaled += 1
    return _digits6(scaled)


def _digits6(v: int) -> str:
    """The integer v over 10**6, written with six decimals."""
    whole, frac = divmod(abs(v), 10**6)
    return f"{'-' if v < 0 else ''}{whole}.{frac:06d}"


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
    lo, hi = map(_as_fraction, spec.window)
    field = list(_reduced_runs(lo, hi, spec.max_den))
    width = _as_fraction(spec.width_px)
    scale = width / (hi - lo)
    # the largest circle drawn, of radius 1/(2*b*b), has the least denominator
    # b, and the field is ordered by denominator; 1/2 when nothing is drawn
    b_min = min([b for b, _ in field[:1]] + [x.denominator for x in highlights], default=1)
    height = scale / (b_min * b_min)
    ln, ld = lo.numerator, lo.denominator
    sn, sd = scale.numerator, scale.denominator
    hn, hd = height.numerator, height.denominator

    def x_px(x: Fraction) -> Fraction:
        return (x - lo) * scale

    def circles(runs: Iterable[tuple[int, list[int]]], stroke: str) -> Iterator[str]:
        """The circles of each run (b, [a, ...]) as one string.  The circle
        at a/b has cx = (a*ld - ln*b)*sn / (b*ld*sd), r = sn/rd and
        cy = height - r = (hn*rd - sn*hd) / (hd*rd), where rd = 2*b*b*sd;
        everything after cx is shared by the run.  v = floor(cx*10**6 + 1/2)
        is the floor of (a*step - shift)/den; an exact quotient is a tie,
        which goes to the even neighbour as in _fmt6.  As a ranges over the
        integers, a*step - shift covers only the class of -shift modulo
        g = gcd(step, den), so den divides none of them unless g divides
        shift: a run tests its circles for a tie only then."""
        step = 2 * ld * sn * 10**6
        for b, run in runs:
            rd = 2 * b * b * sd
            tail = (f'" cy="{_fmt6(hn * rd - sn * hd, hd * rd)}" r="{_fmt6(sn, rd)}" '
                    f'fill="none" stroke="{stroke}" stroke-width="1"/>')
            den = 2 * b * ld * sd
            shift = 2 * ln * b * sn * 10**6 - b * ld * sd
            ties = not shift % gcd(step, den)
            cxs = []
            for a in run:
                v = (a * step - shift) // den
                if ties and v & 1 and not (a * step - shift) % den:
                    v -= 1
                s = str(v)
                cxs.append(s[:-6] + "." + s[-6:] if v >= 10**6 else _digits6(v))
            yield '<circle cx="' + (tail + '\n<circle cx="').join(cxs) + tail

    parts = [_line(Fraction(0), height, width, height, AXIS_STROKE, 1)]
    parts += circles(field, field_stroke)
    if segment is not None:
        parts.append(_line(x_px(segment[0]), height, x_px(segment[1]), height,
                           MARKER_STROKE, 3))
    parts += circles([(x.denominator, [x.numerator]) for x in highlights], HIGHLIGHT_STROKE)
    if marker is not None:
        px = x_px(_approx_for_pixels(marker))
        parts.append(_line(px, height - height / 30, px, height, MARKER_STROKE, 2))
    meta.update(window=[_frac_str(lo), _frac_str(hi)], maxDen=spec.max_den,
                widthPx=spec.width_px)
    text = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    # xml.sax.saxutils.escape, whose import would load urllib, http and email
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
