"""Exact computer algebra for the Hopf algebra of rooted trees.

The package provides canonical non-planar rooted trees and forests, the
Connes-Kreimer coproduct/antipode machinery with generalized natural
growth operators, Butcher elementary differentials over exact rational
jets, and a formal one-dimensional frame-bundle operator model, together
with verification suites that machine-check the algebraic identities.
"""

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
from .growth import (
    GradedBasis,
    GrowthApply,
    GrowthCombo,
    GrowthExpr,
    GrowthLeaf,
    closure_check,
    decompose,
    eval_growth_expr,
    fan_closed_form_report,
    fan_coproduct,
    fan_graph,
    generate_subalgebra,
    parse_growth_expr,
)
from .series import (
    MultiSeries,
    ODEProblem,
    SeriesParseError,
    TruncationError,
    VectorField,
    parse_polynomial,
    parse_vector_field,
    series_solve,
)
from .butcher import (
    check_generalized_growth,
    check_growth_derivative,
    elementary_differential,
    elementary_differential_lincomb,
    phi_at_origin,
    phi_forest_apply,
    phi_t_apply,
)
from .frame import (
    CurvatureFn,
    FormalDiffeo,
    FrameFunction,
    Monomial,
    X_t_apply,
    Y_apply,
    check_X_coproduct,
    check_cocycle,
    check_commutators,
    check_coprodcontrib,
    check_delta_chain,
    check_delta_coproduct,
    check_delta_coproduct_lincomb,
    check_pushforward,
    delta_from_commutators,
    delta_t_apply,
    gamma_bullet,
    gamma_t,
    lift_apply,
    monomial_product,
    parse_frame_function,
    phi_frame,
    phi_frame_op,
)
from .verify import run_suites, verify_butcher, verify_cm, verify_growth, verify_hopf

__all__ = [
    # trees
    "Cut", "EMPTY_FOREST", "Forest", "LEAF", "RootedTree", "TreeParseError", "admissible_cuts",
    "b_minus", "b_plus", "canonicalize", "enumerate_forests", "enumerate_trees", "parse_forest",
    "parse_tree", "tree_order",
    # hopf
    "LinComb", "Tensor2", "antipode", "coproduct", "counit", "delta_k", "grading_Y", "multiply",
    "natural_growth", "nbrel_identity", "ntcoprod_identity", "parse_lincomb",
    # growth
    "GradedBasis", "GrowthApply", "GrowthCombo", "GrowthExpr", "GrowthLeaf", "closure_check",
    "decompose", "eval_growth_expr", "fan_closed_form_report", "fan_coproduct", "fan_graph",
    "generate_subalgebra", "parse_growth_expr",
    # series
    "MultiSeries", "ODEProblem", "SeriesParseError", "TruncationError", "VectorField",
    "parse_polynomial", "parse_vector_field", "series_solve",
    # butcher
    "check_generalized_growth", "check_growth_derivative", "elementary_differential",
    "elementary_differential_lincomb", "phi_at_origin", "phi_forest_apply", "phi_t_apply",
    # frame
    "CurvatureFn", "FormalDiffeo", "FrameFunction", "Monomial", "X_t_apply", "Y_apply",
    "check_X_coproduct", "check_cocycle", "check_commutators", "check_coprodcontrib",
    "check_delta_chain", "check_delta_coproduct", "check_delta_coproduct_lincomb",
    "check_pushforward", "delta_from_commutators", "delta_t_apply", "gamma_bullet", "gamma_t",
    "lift_apply", "monomial_product", "parse_frame_function", "phi_frame", "phi_frame_op",
    # verify
    "run_suites", "verify_butcher", "verify_cm", "verify_growth", "verify_hopf",
]

__version__ = "0.1.0"
