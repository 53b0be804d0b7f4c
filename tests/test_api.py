"""The package's public surface: `from fordcircles import *` must work."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fordcircles
from fordcircles import (
    CFStream,
    ContinuedFraction,
    PeriodicCoefficients,
    QuadraticRadius,
    RenderSpec,
    are_tangent,
    cf_chain,
    cf_of_rational,
    compare_radii,
    compare_real,
    convergents,
    fmt6,
    ford_circle,
    ford_radius,
    gap_relation,
    generic_tangent_radius,
    golden_ratio,
    is_best_approx_2nd,
    is_nearby,
    lemma_q_check,
    lemma_x_check,
    penultimate_pair,
    reduced_fractions_in,
    render_ford_field,
    render_statement_v,
    sqrt_real,
    statement_v_witness,
    tangent_horocircle_radius,
    theorem_u_check,
    verify_sweep,
)


def test_every_exported_name_resolves_once():
    names = fordcircles.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fordcircles, name)]
    assert missing == []
    namespace: dict = {}
    exec("from fordcircles import *", namespace)
    assert set(names) <= set(namespace)


#: Each runs in a fresh interpreter, where geometry and render are not yet
#: loaded (in this process other tests have loaded them already).
LAZY_SURFACE = {
    "every-name": """
names = fordcircles.__all__
assert set(names) <= set(dir(fordcircles)), set(names) - set(dir(fordcircles))
assert [name for name in names if not hasattr(fordcircles, name)] == []
assert fordcircles.FordCircle is fordcircles.geometry.FordCircle
assert fordcircles.fmt6 is fordcircles.render.fmt6
""",
    "from-import": """
from fordcircles import FordCircle, RenderSpec
from fordcircles.geometry import FordCircle as geometry_circle
from fordcircles.render import RenderSpec as render_spec
assert (FordCircle, RenderSpec) == (geometry_circle, render_spec)
""",
    "module-attribute": """
module = fordcircles.geometry
assert module is sys.modules["fordcircles.geometry"]
assert fordcircles.render is sys.modules["fordcircles.render"]
assert fordcircles.ford_circle is module.ford_circle
""",
    "missing-name": """
try:
    fordcircles.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'fordcircles' has no attribute 'no_such_name'", str(exc)
else:
    raise AssertionError("no AttributeError")
""",
    "star-import": """
namespace = {}
exec("from fordcircles import *", namespace)
assert set(fordcircles.__all__) <= set(namespace), set(fordcircles.__all__) - set(namespace)
assert namespace["RenderSpec"] is fordcircles.render.RenderSpec
""",
}


@pytest.mark.parametrize("case", sorted(LAZY_SURFACE))
def test_lazy_names_in_a_fresh_process(case):
    prelude = ("import sys\nimport fordcircles\n"
               "assert {'fordcircles.geometry', 'fordcircles.render'}.isdisjoint(sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-S", "-c", prelude + LAZY_SURFACE[case]],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_removed_names_are_gone():
    for name in ("ChainEntry", "Horocircle", "tangent_horocircle",
                 "make_rational", "Rational", "is_integer", "cf_of_real"):
        assert name not in fordcircles.__all__
        assert not hasattr(fordcircles, name)
    # a ContinuedFraction is finite; a real walks its own coefficients
    for attr in ("from_stream", "finite"):
        assert not hasattr(ContinuedFraction, attr)


@pytest.mark.parametrize("call", [
    lambda: is_best_approx_2nd(1.5, golden_ratio()),
    lambda: is_nearby(1.5, golden_ratio()),
    lambda: statement_v_witness(1.5, golden_ratio()),
    lambda: theorem_u_check(1.5, golden_ratio()),
    lambda: penultimate_pair(0.6),
    lambda: verify_sweep(3, 3, (0.0, 1.0)),
    lambda: cf_of_rational(0.6),
    lambda: compare_radii(F(1, 2), 0.5),
    lambda: compare_radii(tangent_horocircle_radius(golden_ratio(), F(1)), 0.5),
    lambda: tangent_horocircle_radius(golden_ratio(), 1.5),
    lambda: ford_circle(0.5),
    lambda: are_tangent(0.5, F(1)),
    lambda: gap_relation(0.5, F(1)),
    lambda: generic_tangent_radius(F(0), 0.25, F(1)),
    lambda: lemma_x_check(0.0, F(1), F(1, 2)),
    lambda: lemma_q_check(F(0), F(1), F(1, 2), 2.0),
    lambda: list(reduced_fractions_in(0.0, 1.0, 3)),
    lambda: list(reduced_fractions_in(0, 1, 3.0)),
    lambda: verify_sweep(3.0, 3, (0, 1)),
    lambda: verify_sweep(3, 3.0, (0, 1)),
    lambda: render_ford_field(RenderSpec(max_den=3.0)),
    lambda: render_ford_field(RenderSpec(window=(0.0, 1.0))),
    lambda: render_ford_field(RenderSpec(width_px=800.0)),
    lambda: render_statement_v(1.5, golden_ratio(), RenderSpec(window=(F(1), F(2)))),
    lambda: fmt6(0.5),
    lambda: PeriodicCoefficients([1.5]),
    lambda: sqrt_real(2.9),
    lambda: ContinuedFraction.from_coefficients([0, 2.7]),
    lambda: CFStream(1.5, PeriodicCoefficients([1])),
    lambda: convergents(cf_of_rational(F(3, 5)), 2.5),
    lambda: cf_chain(golden_ratio(), 2.5),
    lambda: ford_radius(0.5),
    lambda: compare_real(CFStream(1, [1.5] * 3), F(8, 5)),
    lambda: QuadraticRadius(golden_ratio(), 0.5, 0, 0),
], ids=["is_best_approx_2nd", "is_nearby", "statement_v_witness",
        "theorem_u_check", "penultimate_pair", "verify_sweep", "cf_of_rational",
        "compare_radii", "compare_radii-stream", "tangent_horocircle_radius",
        "ford_circle", "are_tangent", "gap_relation", "generic_tangent_radius",
        "lemma_x_check", "lemma_q_check", "reduced_fractions_in",
        "reduced_fractions_in-max_den", "verify_sweep-den_max_x",
        "verify_sweep-den_max_alpha", "render-max_den", "render-window", "render-width", "render_statement_v", "fmt6",
        "PeriodicCoefficients", "sqrt_real", "from_coefficients", "CFStream",
        "convergents", "cf_chain", "ford_radius", "stream-partial", "QuadraticRadius"])
def test_float_arguments_rejected(call):
    # a float would be expanded to its binary value and decide exactly on it,
    # or truncated where an integer is expected
    with pytest.raises(TypeError, match="floating-point"):
        call()
