"""Aggregated property suites producing machine-readable results.

Each suite is a pure function of the spec, its grid parameters, and (for
randomized suites) an RNG seed, so results are reproducible.  A suite
result records the worst violation it saw; `passed` means that violation
stayed within the suite's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .builder import LoopSpec, reflect_spec, subfunction_bound
from .errors import RootNotBracketedError, UnknownSuiteError
from .fourier import TWO_PI, simpson_quadrature

#: default seed for randomized suites, recorded in their results
DEFAULT_SEED = 20260810

SUITE_NAMES = ("axioms", "baer", "isomorphism", "oracle", "psl2")

Detail = tuple[str, object, float]


@dataclass(frozen=True)
class SuiteResult:
    suite_name: str
    passed: bool
    cases_run: int
    worst_violation: float
    tolerance: float
    details: tuple[Detail, ...] = field(default_factory=tuple)
    seed: int | None = None


def _worst(details: list[Detail]) -> float:
    return max((v for _, _, v in details), default=0.0)


def run_axiom_suite(spec: LoopSpec, grid_n: int = 64) -> SuiteResult:
    """Identity laws, division round trips, and translation monotonicity.

    Round trips are recovery checks: ldiv(a, a*y) must return y itself and
    rdiv(x*a, a) must return x itself, which also exercises uniqueness of
    the solutions, not merely the residual of some solution.

    Monotonicity scans, on a 4097-point grid, the lifts of t -> a * t for
    every grid anchor a and of t -> t * a for the anchors in [0, pi):
    t * (a + pi) is t * a turned by pi, with the same steps.  Its
    violation is the worst backward step, or the worst winding error once
    that reaches 1e-6.  For
    a valid spec every such map is a strictly increasing degree-1 circle
    map; a failing right translation is precisely a failure of sharp
    transitivity (two left translations carrying the anchor to the same
    point).
    """
    angles = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    aa, bb = np.meshgrid(angles, angles, indexing="ij")
    details: list[Detail] = []
    cases = 0

    left_id = ops._circular_distance(ops._mul_unchecked(spec, 0.0, angles), angles)
    right_id = ops._circular_distance(ops._mul_unchecked(spec, angles, 0.0), angles)
    i, j = int(left_id.argmax()), int(right_id.argmax())
    details.append(("identity-left", float(angles[i]), float(left_id[i])))
    details.append(("identity-right", float(angles[j]), float(right_id[j])))
    cases += 2 * grid_n

    y = ops._ldiv_unchecked(spec, aa, ops._mul_unchecked(spec, aa, bb))
    err = ops._circular_distance(y, bb)
    k = int(err.argmax())
    details.append(
        ("ldiv-roundtrip", (float(aa.ravel()[k]), float(bb.ravel()[k])),
         float(err.ravel()[k]))
    )
    try:
        x = ops._rdiv_unchecked(spec, ops._mul_unchecked(spec, aa, bb), bb)
        err = ops._circular_distance(x, aa)
        k = int(err.argmax())
        details.append(
            ("rdiv-roundtrip", (float(aa.ravel()[k]), float(bb.ravel()[k])),
             float(err.ravel()[k]))
        )
    except RootNotBracketedError:
        details.append(("rdiv-roundtrip", None, float("inf")))
    cases += 2 * grid_n * grid_n

    ts = np.linspace(0.0, TWO_PI, 4097)
    for side, anchors in (("left", angles), ("right", angles[angles < np.pi])):
        step, i, j, wind, _ = ops._worst_step(ops._translation_lifts(spec, anchors, ts, side))
        violation = max(0.0, -step, 0.0 if wind < 1e-6 else wind)
        details.append(
            (f"{side}-translation-monotonicity", (float(anchors[i]), float(ts[j])), violation)
        )
        cases += anchors.size * 4096

    worst = _worst(details)
    return SuiteResult("axioms", worst <= 1e-9, cases, worst, 1e-9, tuple(details))


def run_baer_suite(
    spec: LoopSpec, beta_grid: int = 64, t_grid: int = 4096
) -> SuiteResult:
    """Strict monotonicity and unit winding of every sampled eta_beta."""
    rep = ops.baer_transversal_check(spec, beta_grid, t_grid)
    violation = max(max(0.0, -rep.worst_margin), rep.worst_winding_error)
    details = (
        ("eta-monotonicity", (rep.worst_beta, rep.worst_t), max(0.0, -rep.worst_margin)),
        ("eta-winding", rep.worst_winding_beta, rep.worst_winding_error),
        ("eta-min-step", (rep.worst_beta, rep.worst_t), rep.worst_margin),
    )
    return SuiteResult(
        "baer", rep.passed, beta_grid * t_grid, violation, 1e-6, details
    )


def check_isomorphism_pair(spec: LoopSpec, grid_n: int = 64) -> SuiteResult:
    """Verify that angle negation intertwines a spec with its mirror.

    With phi(t) = -t mod 2*pi and spec' the mirror (f(-t), -g(-t)), checks
    mul'(phi(s), phi(t)) = phi(mul(s, t)) on a grid.  A pass is evidence
    that the two specs give isomorphic loops (they are expected to be the
    only members of their isomorphism class); a fail rejects the candidate
    intertwiner and is reported, not silently resolved.
    """
    mirror = reflect_spec(spec)
    angles = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    ss, tt = np.meshgrid(angles, angles, indexing="ij")
    phi = lambda x: (-np.asarray(x)) % TWO_PI
    lhs = ops._mul_unchecked(mirror, phi(ss), phi(tt))
    rhs = phi(ops._mul_unchecked(spec, ss, tt))
    err = ops._circular_distance(lhs, rhs)
    k = int(err.argmax())
    details = (
        ("intertwiner", (float(ss.ravel()[k]), float(tt.ravel()[k])),
         float(err.ravel()[k])),
        ("mirror-verdict", None, 0.0 if mirror.report.verdict else float("inf")),
    )
    worst = _worst(list(details))
    return SuiteResult(
        "isomorphism", worst <= 1e-8, grid_n * grid_n, worst, 1e-8, details
    )


def check_psl2_quotient(spec: LoopSpec) -> bool:
    """True iff f(pi) = 1 and g(pi) = 0, i.e. 1/f_inv(pi) = 1 and g(pi) = 0.

    When true, the loop is a double cover of a loop whose left-translation
    group is the rotation quotient of the unimodular group by its center.
    """
    return run_psl2_suite(spec).passed


def run_psl2_suite(spec: LoopSpec) -> SuiteResult:
    """Predicate wrapper: `passed` states the quotient condition holds."""
    r1 = abs(float(spec.f_inv(np.pi)) - 1.0)
    r2 = abs(float(spec.g(np.pi)))
    worst = max(r1, r2)
    details = (
        ("f_inv(pi)-1", float(np.pi), r1),
        ("g(pi)", float(np.pi), r2),
    )
    return SuiteResult("psl2", worst < 1e-9, 2, worst, 1e-9, details)


def oracle_crosscheck_suite(
    spec: LoopSpec, seed: int = DEFAULT_SEED, samples: int = 48
) -> SuiteResult:
    """Closed forms vs composite-rule quadrature at randomly sampled angles.

    Checks, each at 1e-8: the profile coefficients against
    e^t (1 - int_0^t weight(u) e^-u du), the exponential-weighted integral
    closed form, and the comparison bound h against direct quadrature of
    its integrand.
    """
    rng = np.random.default_rng(seed)
    ts = np.concatenate(([0.0, np.pi, TWO_PI], rng.uniform(0.0, TWO_PI, samples)))
    weight, f_inv = spec.weight, spec.f_inv
    energy = lambda u: f_inv(u) ** 2 - f_inv.derivative_at(u) ** 2
    details: list[Detail] = []
    for t in ts:
        t = float(t)
        if t > 0.0:
            # the e^t factor amplifies quadrature error, so this check gets
            # a denser rule than the others
            quad = simpson_quadrature(lambda u: weight(u) * np.exp(-u), 0.0, t, 8192)
            details.append(
                ("f_inv-closed-vs-integral", t,
                 abs(float(f_inv(t)) - float(np.exp(t) * (1.0 - quad))))
            )
            quad = simpson_quadrature(lambda u: weight(u) * np.exp(-u), 0.0, t, 1024)
            details.append(
                ("exp-weighted-integral", t,
                 abs(float(weight.exp_weighted_integral(t)) - quad))
            )
            hquad = simpson_quadrature(energy, 0.0, t, 1024) / float(f_inv(t))
            details.append(
                ("subfunction-bound", t,
                 abs(float(subfunction_bound(f_inv, t)) - hquad))
            )
        else:
            details.append(("subfunction-bound", t, abs(float(subfunction_bound(f_inv, t)))))
    worst = _worst(details)
    top = tuple(sorted(details, key=lambda d: -d[2])[:6])
    return SuiteResult(
        "oracle", worst <= 1e-8, len(details), worst, 1e-8, top, seed=seed
    )


def run_suite(spec: LoopSpec, name: str, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Dispatch one suite by name, or all of them for name 'all'.

    For 'all' the quotient predicate is included for information; whether
    a particular loop covers a rotation-quotient loop is a property, not a
    defect, so its result never fails the combined run (the CLI treats it
    accordingly).
    """
    runners = {
        "axioms": lambda: run_axiom_suite(spec),
        "baer": lambda: run_baer_suite(spec),
        "isomorphism": lambda: check_isomorphism_pair(spec),
        "oracle": lambda: oracle_crosscheck_suite(spec, seed),
        "psl2": lambda: run_psl2_suite(spec),
    }
    if name == "all":
        return [runners[n]() for n in SUITE_NAMES]
    if name not in runners:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    return [runners[name]()]
