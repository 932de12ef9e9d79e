"""Aggregated property suites producing machine-readable results.

Each suite is a pure function of the spec, its grid parameters, and (for
randomized suites) an RNG seed, so results are reproducible.  A suite
result records the worst violation it saw; `passed` means that violation
stayed within the suite's tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .builder import LoopSpec, reflect_spec, subfunction_bound
from .errors import InvalidGridError, RootNotBracketedError, UnknownSuiteError
from .fourier import TWO_PI

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

    Monotonicity reads, on a 4097-point grid, the forward steps of
    t -> a * t for every grid anchor a and of t -> t * a for the anchors
    in [0, pi): t * (a + pi) is t * a turned by pi, with the same steps.
    Each step is the signed angle between consecutive coset columns, so no
    lift is unwrapped.  Its violation is the worst backward step, or the
    worst winding error |sum of steps - 2*pi| once that reaches 1e-6.  For
    a valid spec every such map is a strictly increasing degree-1 circle
    map; a failing right translation is precisely a failure of sharp
    transitivity (two left translations carrying the anchor to the same
    point).  grid_n below 1 raises InvalidGridError.
    """
    ops._require_points(grid_n=grid_n)
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
        step, i, j, wind, _ = ops._worst_step(ops._translation_steps(spec, anchors, ts, side))
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
    intertwiner and is reported, not silently resolved.  grid_n below 1
    raises InvalidGridError.
    """
    ops._require_points(grid_n=grid_n)
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


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def oracle_crosscheck_suite(
    spec: LoopSpec, seed: int = DEFAULT_SEED, samples: int = 48
) -> SuiteResult:
    """Closed forms vs Gauss–Legendre quadrature at randomly sampled angles.

    Checks, each at 1e-8: the profile against
    e^t (1 - int_0^t weight(u) e^-u du), the exponential-weighted integral
    closed form, and the comparison bound h against quadrature of its
    integrand f_inv^2 - f_inv'^2; the first two read the same integral.

    Both integrands are integrated over every [0, t] at once, with nodes
    u = t (x + 1)/2 of the n-point Gauss–Legendre rule, n = 4K + 32 for a
    weight of K harmonics.  The rule is exact for polynomials of degree
    2n - 1 = 8K + 63.  On [0, t], t <= 2*pi, a harmonic of order m has
    Chebyshev coefficients J_j(m t / 2), negligible once j passes m*pi by
    a few dozen; the energy integrand has order 2K, so it needs about
    6.3K + 30, and the weight integrand is order K times the entire e^-u.
    So only rounding remains: against 1200 nodes, at most 1e-10 after the
    e^t amplification and 6e-14 on the energy integral for K <= 128,
    where n = 2K + 16 leaves energy errors up to 5e-4.  A t of 0 gets only
    the bound's check, h(0) = 0; samples below 0 raise InvalidGridError.
    """
    if samples < 0:
        raise InvalidGridError(f"samples must be at least 0, got {samples}")
    rng = np.random.default_rng(seed)
    ts = np.concatenate(([0.0, np.pi, TWO_PI], rng.uniform(0.0, TWO_PI, samples)))
    weight, f_inv = spec.weight, spec.f_inv
    nodes, weights = _gauss_legendre(4 * weight.harmonics + 32)
    half = 0.5 * ts
    u = half[:, None] * (nodes + 1.0)
    weighted = half * ((weight(u) * np.exp(-u)) @ weights)
    energy = half * ((f_inv(u) ** 2 - f_inv.derivative_at(u) ** 2) @ weights)
    profile = f_inv(ts)
    gaps = zip(
        ts.tolist(),
        np.abs(profile - np.exp(ts) * (1.0 - weighted)).tolist(),
        np.abs(weight.exp_weighted_integral(ts) - weighted).tolist(),
        np.abs(subfunction_bound(f_inv, ts) - energy / profile).tolist(),
    )
    details: list[Detail] = []
    for t, profile_gap, weighted_gap, bound_gap in gaps:
        if t > 0.0:
            details.append(("f_inv-closed-vs-integral", t, profile_gap))
            details.append(("exp-weighted-integral", t, weighted_gap))
        details.append(("subfunction-bound", t, bound_gap))
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
