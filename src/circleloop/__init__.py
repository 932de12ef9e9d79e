"""Differentiable loops on the circle from truncated Fourier data.

Build a loop spec from a weight series and a shear, validate every
admissibility condition, evaluate the loop operations, and verify the
loop / sharp-transitivity properties numerically.
"""

from .builder import (
    Failure,
    LoopSpec,
    Tolerances,
    ValidationReport,
    build_loop_spec,
    check_discriminant,
    f_inv_from_weight,
    integral_inequality_value,
    reflect_spec,
    solve_g_const,
    subfunction_bound,
    weight_from_f_inv,
)
from .fourier import (
    FourierSeries,
    WeightReport,
    check_weight,
    simpson_quadrature,
    solve_a0,
)
from .ops import (
    SectionPoint,
    baer_transversal_check,
    eta,
    eta_derivative_expr,
    eta_lift,
    ldiv,
    mul,
    rdiv,
    section,
    transitivity_quadratic,
)
from .sl2 import angle_of, kh_decompose, normalize_angle, rot, upper
from .verify import (
    SuiteResult,
    check_isomorphism_pair,
    check_psl2_quotient,
    oracle_crosscheck_suite,
    run_axiom_suite,
    run_baer_suite,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "FourierSeries",
    "WeightReport",
    "check_weight",
    "simpson_quadrature",
    "solve_a0",
    "solve_g_const",
    "Failure",
    "LoopSpec",
    "Tolerances",
    "ValidationReport",
    "build_loop_spec",
    "check_discriminant",
    "f_inv_from_weight",
    "weight_from_f_inv",
    "integral_inequality_value",
    "reflect_spec",
    "subfunction_bound",
    "SectionPoint",
    "section",
    "mul",
    "ldiv",
    "rdiv",
    "eta",
    "eta_lift",
    "eta_derivative_expr",
    "transitivity_quadratic",
    "baer_transversal_check",
    "rot",
    "upper",
    "kh_decompose",
    "angle_of",
    "normalize_angle",
    "SuiteResult",
    "run_axiom_suite",
    "run_baer_suite",
    "check_isomorphism_pair",
    "check_psl2_quotient",
    "oracle_crosscheck_suite",
    "run_suite",
]
