"""Differentiable loops on the circle from truncated Fourier data.

Build a loop spec from a weight series and a shear, validate every
admissibility condition, evaluate the loop operations, and verify the
loop / sharp-transitivity properties numerically.  `mul`, `ldiv`, `rdiv`
and `eta` here are those of `circleloop.ops`, which has no gate, behind
one: InvalidSpecError on a spec that failed validation, and NaN without a
warning at a non-finite argument.  The suites' names load
from `circleloop.verify` on first use, so importing the package (or the
CLI for any command but `check`) does not import them.
"""

from . import ops
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

mul, ldiv, rdiv, eta = map(ops._operation, (ops.mul, ops.ldiv, ops.rdiv, ops.eta))

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


def __getattr__(name: str):
    # PEP 562: the six suite names are read from `verify`, imported on first
    # use; any other name falls through, so `from circleloop import verify`
    # still imports the submodule
    if name in ("SuiteResult", "check_isomorphism_pair", "oracle_crosscheck_suite",
                "run_axiom_suite", "run_baer_suite", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
