"""Exact computer algebra for the Hopf algebra of rooted trees.

The package provides canonical non-planar rooted trees and forests, the
Connes-Kreimer coproduct/antipode machinery with generalized natural
growth operators, Butcher elementary differentials over exact rational
jets, and a formal one-dimensional frame-bundle operator model, together
with verification suites that machine-check the algebraic identities.

`import treehopf` loads only the `trees` and `hopf` layers, which every
other layer builds on.  The names of the other layers, and the layer
modules themselves, are loaded on first access (PEP 562), so a command
that needs only the Hopf algebra never compiles the jet machinery.
"""

from importlib import import_module

from .trees import (
    Cut,
    EMPTY_FOREST,
    Forest,
    LEAF,
    RootedTree,
    TreeParseError,
    admissible_cuts,
    b_minus,
    b_plus,
    canonicalize,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    tree_order,
)
from .hopf import (
    LinComb,
    Tensor2,
    antipode,
    coproduct,
    counit,
    delta_k,
    grading_Y,
    multiply,
    natural_growth,
    nbrel_identity,
    ntcoprod_identity,
    parse_lincomb,
)

# Layer modules loaded on first access, and the public name -> layer table.
_LAZY_LAYERS = ("growth", "linalg", "series", "butcher", "frame", "verify")
_LAZY = {
    name: layer
    for layer, names in (
        ("growth", (
            "GradedBasis", "GrowthApply", "GrowthCombo", "GrowthExpr", "GrowthLeaf",
            "closure_check", "decompose", "eval_growth_expr", "fan_closed_form_report",
            "fan_coproduct", "fan_graph", "generate_subalgebra", "parse_growth_expr",
        )),
        ("series", (
            "MultiSeries", "ODEProblem", "SeriesParseError", "TruncationError", "VectorField",
            "parse_polynomial", "parse_vector_field", "series_solve",
        )),
        ("butcher", (
            "check_generalized_growth", "check_growth_derivative", "elementary_differential",
            "elementary_differential_lincomb", "phi_at_origin", "phi_forest_apply", "phi_t_apply",
        )),
        ("frame", (
            "CurvatureFn", "FormalDiffeo", "FrameFunction", "Monomial", "X_t_apply", "Y_apply",
            "check_X_coproduct", "check_cocycle", "check_commutators", "check_coprodcontrib",
            "check_delta_chain", "check_delta_coproduct", "check_delta_coproduct_lincomb",
            "check_pushforward", "delta_from_commutators", "delta_t_apply", "gamma_bullet",
            "gamma_t", "lift_apply", "monomial_product", "parse_frame_function", "phi_frame",
            "phi_frame_op",
        )),
        ("verify", ("run_suites", "verify_butcher", "verify_cm", "verify_growth", "verify_hopf")),
    )
    for name in names
}

__all__ = [
    # trees
    "Cut", "EMPTY_FOREST", "Forest", "LEAF", "RootedTree", "TreeParseError", "admissible_cuts",
    "b_minus", "b_plus", "canonicalize", "enumerate_forests", "enumerate_trees", "parse_forest",
    "parse_tree", "tree_order",
    # hopf
    "LinComb", "Tensor2", "antipode", "coproduct", "counit", "delta_k", "grading_Y", "multiply",
    "natural_growth", "nbrel_identity", "ntcoprod_identity", "parse_lincomb",
    *_LAZY,
]


def __getattr__(name: str):
    """Load a lazy layer, or the layer defining a lazy name, and keep the result."""
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY_LAYERS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_LAYERS})


__version__ = "0.1.0"
