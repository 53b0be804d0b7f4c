"""Exact continued fractions, Ford circles, and best approximation of the
second kind, with a mechanically checked five-way equivalence between them.

Everything is exact: rationals are fractions, irrationals are continued
fraction coefficient streams, and every real walks its own coefficients and
convergents.  Queries are decided by integer sign tests on the surd of a
rational or an eventually periodic stream and on integer convergent pairs
otherwise, and no floating-point number is ever consulted for a mathematical
decision.
"""

from .cf import (
    ContinuedFraction,
    Convergent,
    cf_of_rational,
    convergent_ordering_check,
    convergents,
    value,
)
from .rational import reduced_fractions_in
from .real import (
    EQ,
    GT,
    LT,
    CFStream,
    ExactReal,
    PeriodicCoefficients,
    RealNumber,
    RefinementExhausted,
    as_real,
    compare_real,
    floor_scaled,
    golden_ratio,
    sign_of_quadratic,
    sqrt_real,
)
from .verify import (
    TheoremUReport,
    is_best_approx_2nd,
    is_nearby,
    penultimate_pair,
    statement_v_witness,
    theorem_u_check,
    verify_sweep,
)

__version__ = "0.1.0"

#: Public names of the modules that load on first use, each with its module.
#: No check, cf or verify run needs geometry or render, so importing the
#: package leaves both unloaded; the modules themselves resolve here as well.
_LAZY = {
    name: module
    for module, names in (
        ("geometry", ("geometry", "FordCircle", "GapRelation", "QuadraticRadius",
                      "are_tangent", "cf_chain", "compare_radii", "ford_circle",
                      "ford_radius", "gap_relation", "generic_tangent_radius",
                      "lemma_q_check", "lemma_x_check", "tangent_horocircle_radius")),
        ("render", ("render", "RenderSpec", "fmt6", "render_chain", "render_ford_field",
                    "render_statement_v")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "ContinuedFraction", "Convergent", "cf_of_rational",
    "convergent_ordering_check", "convergents", "value",
    "FordCircle", "GapRelation", "QuadraticRadius",
    "are_tangent", "cf_chain", "compare_radii", "ford_circle", "ford_radius",
    "gap_relation", "generic_tangent_radius", "lemma_q_check", "lemma_x_check",
    "tangent_horocircle_radius",
    "reduced_fractions_in",
    "EQ", "GT", "LT", "CFStream", "ExactReal", "PeriodicCoefficients",
    "RealNumber", "RefinementExhausted", "as_real", "compare_real",
    "floor_scaled", "golden_ratio", "sign_of_quadratic", "sqrt_real",
    "RenderSpec", "fmt6", "render_chain", "render_ford_field",
    "render_statement_v",
    "TheoremUReport", "is_best_approx_2nd",
    "is_nearby", "penultimate_pair", "statement_v_witness", "theorem_u_check",
    "verify_sweep",
    "__version__",
]
