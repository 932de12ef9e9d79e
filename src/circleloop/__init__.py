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
    f_inv_from_weight,
    integral_inequality_value,
    reflect_spec,
    solve_g_const,
    subfunction_bound,
    weight_from_f_inv,
)
from .fourier import FourierSeries, solve_a0
from .ops import eta, ldiv, mul, rdiv
from .verify import (
    SuiteResult,
    check_isomorphism_pair,
    oracle_crosscheck_suite,
    run_axiom_suite,
    run_baer_suite,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "FourierSeries",
    "solve_a0",
    "solve_g_const",
    "Failure",
    "LoopSpec",
    "Tolerances",
    "ValidationReport",
    "build_loop_spec",
    "f_inv_from_weight",
    "weight_from_f_inv",
    "integral_inequality_value",
    "reflect_spec",
    "subfunction_bound",
    "mul",
    "ldiv",
    "rdiv",
    "eta",
    "SuiteResult",
    "run_axiom_suite",
    "run_baer_suite",
    "check_isomorphism_pair",
    "oracle_crosscheck_suite",
    "run_suite",
]
