"""Aggregated property suites producing machine-readable results.

Each suite is a pure function of the spec and, for `oracle`, an RNG
seed, so results are reproducible.  Suite `baer` reads the spec's own
grid, the samples its verdict read; the others sample fixed angles.  A
suite result records the worst violation it saw; `passed` means that
violation stayed within the suite's tolerance.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .builder import LoopSpec, reflect_spec, subfunction_bound
from .errors import NonPositiveProfileError, RootNotBracketedError, UnknownSuiteError
from .fourier import TWO_PI, _grid_min

#: default seed for randomized suites, recorded in their results
DEFAULT_SEED = 20260810

SUITE_NAMES = ("axioms", "baer", "isomorphism", "oracle", "psl2")
#: angles per axis of the pair grids of suites `axioms` and `isomorphism`
_PAIR_GRID = 64
#: random angles of suite `oracle`, besides 0, pi and 2*pi
_ORACLE_SAMPLES = 48

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


def _worst_pair(name: str, xx: np.ndarray, yy: np.ndarray, err: np.ndarray) -> Detail:
    """The detail of the largest err on a pair grid, located at its (x, y)."""
    k = int(err.argmax())
    return (name, (float(xx.ravel()[k]), float(yy.ravel()[k])), float(err.ravel()[k]))


def run_axiom_suite(spec: LoopSpec) -> SuiteResult:
    """Identity laws and division round trips on a 64 x 64 grid.

    Round trips are recovery checks: ldiv(a, a*y) must return y itself and
    rdiv(x*a, a) must return x itself, which also exercises uniqueness of
    the solutions, not merely the residual of some solution.

    Translations are not scanned here.  A left translation is the action
    of one unimodular matrix, increasing with degree one for every spec.
    A right translation t -> t * a is eta_a shifted by a, so its slope is
    one of the slopes that suite `baer` bounds below over every beta: a
    backward right translation (two left translations carrying the anchor
    to the same point) is a `baer` failure.
    """
    angles = np.linspace(0.0, TWO_PI, _PAIR_GRID, endpoint=False)
    aa, bb = np.meshgrid(angles, angles, indexing="ij")
    details: list[Detail] = []

    # where F vanishes the operations divide by 0: the suite fails, without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        left_id = ops._circular_distance(ops.mul(spec, 0.0, angles), angles)
        right_id = ops._circular_distance(ops.mul(spec, angles, 0.0), angles)
        i, j = int(left_id.argmax()), int(right_id.argmax())
        details.append(("identity-left", float(angles[i]), float(left_id[i])))
        details.append(("identity-right", float(angles[j]), float(right_id[j])))

        products = ops.mul(spec, aa, bb)
        y = ops.ldiv(spec, aa, products)
        details.append(_worst_pair("ldiv-roundtrip", aa, bb, ops._circular_distance(y, bb)))
        # Each of rdiv's 51 bisection passes frees more than glibc's default
        # 128 KB heap-trim threshold, so the heap top would go back to the OS
        # and be faulted in again at every pass (about 2,000 page faults here).
        # glibc raises the threshold to twice the largest mmapped chunk a
        # process has freed (mallopt(3), M_MMAP_THRESHOLD): this 1 MB scratch,
        # allocated and freed at once, is that chunk.
        np.empty(1 << 17)
        try:
            x = ops.rdiv(spec, products, bb)
            details.append(_worst_pair("rdiv-roundtrip", aa, bb, ops._circular_distance(x, aa)))
        except RootNotBracketedError:
            details.append(("rdiv-roundtrip", None, float("inf")))

    worst = _worst(details)
    cases = 2 * _PAIR_GRID + 2 * _PAIR_GRID**2
    return SuiteResult("axioms", worst <= 1e-9, cases, worst, 1e-9, tuple(details))


def _least_eta_slope(spec: LoopSpec, n: int):
    """r = F'/F, m = (g' + g r)/F and the least eta slope d / lambda_max of
    `run_baer_suite`, on the n-point grid, from the cached samples of F, F',
    g and g'.  Ratios only, so a large F does not overflow; NaN or infinite,
    without a warning, where F vanishes.
    """
    fh, fhp, g, gp = (
        s._on_grid(n) for s in (spec.f_inv, spec.f_inv.derivative(), spec.g, spec.g.derivative())
    )
    with np.errstate(all="ignore"):
        r = fhp / fh
        m = (gp + g * r) / fh
        return r, m, (1.0 + m - r * r) / (1.0 + 0.5 * m + np.hypot(0.5 * m, r))


def run_baer_suite(spec: LoopSpec) -> SuiteResult:
    """Strict monotonicity of every eta_beta, decided over all beta at once.

    eta_beta(t) is t - beta plus the polar angle of the coset column
    c = A (cos beta, sin beta), A = [[1/F, -g], [0, F]] with F = f_inv and
    det A = 1.  Since c' = A' A^-1 c = [[-r, -m], [0, r]] c with r = F'/F
    and m = (g' + g r)/F = (gF)'/F^2,

        eta_beta' = 1 + (c x c')/|c|^2 = c.M c / |c|^2,
        M = [[1, r], [r, 1 + m]],

    a Rayleigh quotient, so the least slope over every beta is the smaller
    eigenvalue of M, d / lambda_max with d = det M = 1 + m - r^2 and
    lambda_max = 1 + m/2 + sqrt(m^2/4 + r^2) >= 1; that quotient has no
    cancellation beyond d's own.  Its minimiser is c along that
    eigenvector, beta* the angle of A^-1 c in [0, pi) (conjugation by
    rot(beta) and rot(beta + pi) agree).  As d = Q/F^2, with Q the
    admissibility polynomial of the verdict, the least slope has the sign
    of Q wherever F does not vanish.  Where F > 0 on the circle every
    eta_beta has degree one, since beta -> eta_beta is a homotopy from
    eta_0(t) = t through maps whose columns never vanish.

    The least slope is read on the verdict's grid, the report's grid_n
    angles, from the cached samples of F, F', g and g' that the verdict
    read.  So the suite and the verdict measure one quantity at the same
    samples, on whatever grid the spec was built, and the sign agreement
    is exact there: where F > 0 on the grid, the least slope is positive
    at every angle exactly when the report's q_min > 0 (short of a Q
    within rounding of 0).  `passed` means it is positive at every angle.  Where F
    vanishes on the grid the slope is NaN or infinite and the suite fails
    with an infinite violation.  Does not require a valid spec: this is
    the check that exposes a corrupted one.
    """
    n = spec.report.grid_n
    r, m, slope = _least_eta_slope(spec, n)
    low, t = _grid_min(slope)
    j = int(slope.argmin())
    with np.errstate(all="ignore"):
        # the eigenvector of the smaller eigenvalue, v = (cos phi, sin phi),
        # and the direction A^-1 v = (F cos phi + g sin phi, sin phi / F)
        phi = 0.5 * np.arctan2(-2.0 * r[j], m[j])
        fh, g = spec.f_inv._on_grid(n)[j], spec.g._on_grid(n)[j]
        beta = np.arctan2(np.sin(phi) / fh, fh * np.cos(phi) + g * np.sin(phi))
    where = (float(beta % np.pi % np.pi), t)  # the second mod takes a rounded pi to 0
    finite = bool(np.isfinite(slope).all())
    backward = max(0.0, -low) if finite else float("inf")
    details = (("eta-monotonicity", where, backward), ("eta-min-slope", where, low))
    return SuiteResult("baer", finite and low > 0.0, n, backward, 0.0, details)


def check_isomorphism_pair(spec: LoopSpec) -> SuiteResult:
    """Verify that angle negation intertwines a spec with its mirror.

    With phi(t) = -t mod 2*pi and spec' the mirror (f(-t), -g(-t)), checks
    mul'(phi(s), phi(t)) = phi(mul(s, t)) on a 64 x 64 grid.  A pass is
    evidence that the two specs give isomorphic loops (they are expected
    to be the only members of their isomorphism class); a fail rejects the
    candidate intertwiner and is reported, not silently resolved.
    """
    mirror = reflect_spec(spec)
    angles = np.linspace(0.0, TWO_PI, _PAIR_GRID, endpoint=False)
    ss, tt = np.meshgrid(angles, angles, indexing="ij")
    phi = lambda x: ops._mod_two_pi(-np.asarray(x))
    with np.errstate(divide="ignore", invalid="ignore"):  # F may vanish, as in `axioms`
        lhs = ops.mul(mirror, phi(ss), phi(tt))
        rhs = phi(ops.mul(spec, ss, tt))
        gap = ops._circular_distance(lhs, rhs)
    details = (
        _worst_pair("intertwiner", ss, tt, gap),
        ("mirror-verdict", None, 0.0 if mirror.report.verdict else float("inf")),
    )
    worst = _worst(list(details))
    return SuiteResult(
        "isomorphism", worst <= 1e-8, _PAIR_GRID**2, worst, 1e-8, details
    )


def run_psl2_suite(spec: LoopSpec) -> SuiteResult:
    """`passed` iff F and g are pi-periodic: every odd coefficient of F = f_inv
    and of g is at most 1e-9 in size, and f(pi) = 1 and g(pi) = 0.

    Then (s + pi) * t = s * t + pi as well as s * (t + pi) = s * t + pi,
    and the loop is a double cover of a loop whose left-translation group
    is the rotation quotient of the unimodular group by its center.  The
    point checks alone say only that sigma(pi) = -I, which is central, so
    they hold for loops that cover nothing, such as F = 1 + 0.2 sin t; they
    stay to reject a spec whose F(0) or g(0) is off, which the coefficients
    alone do not see.
    """
    f_inv, g = spec.f_inv, spec.g
    r1 = abs(float(f_inv(np.pi)) - 1.0)
    r2 = abs(float(g(np.pi)))
    odd = max(map(abs, f_inv.cos[::2] + f_inv.sin[::2] + g.cos[::2] + g.sin[::2]), default=0.0)
    details = (
        ("f_inv(pi)-1", float(np.pi), r1),
        ("g(pi)", float(np.pi), r2),
        ("odd-harmonics", None, odd),
    )
    passed = r1 < 1e-9 and r2 < 1e-9 and odd <= 1e-9
    return SuiteResult("psl2", passed, 3, _worst(list(details)), 1e-9, details)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [-1, 1], read-only.

    Golub–Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, symmetric tridiagonal with zero diagonal and
    off-diagonal k / sqrt(4k^2 - 1), k < n, and each weight is 2 times the
    square of the first entry of its unit eigenvector.  `numpy.linalg` comes
    with numpy, where `numpy.polynomial` would be one more import.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def oracle_crosscheck_suite(spec: LoopSpec, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Closed forms vs Gauss–Legendre quadrature at 0, pi, 2*pi and 48 random angles.

    Checks, each at 1e-8: the profile against its defining formula
    e^t (1 - int_0^t weight(u) e^-u du), and the comparison bound h against
    quadrature of its integrand f_inv^2 - f_inv'^2.

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
    the bound's check, h(0) = 0.

    The 48 angles are uniform on [0, 2*pi], drawn from the standard
    library's Mersenne Twister, `random.Random(seed).uniform`: each seed
    gives fixed angles, and no process pays for importing numpy.random.
    """
    draw = random.Random(seed).uniform
    ts = np.array([0.0, np.pi, TWO_PI] + [draw(0.0, TWO_PI) for _ in range(_ORACLE_SAMPLES)])
    weight, f_inv = spec.weight, spec.f_inv
    nodes, weights = _gauss_legendre(4 * weight.harmonics + 32)
    half = 0.5 * ts
    u = half[:, None] * (nodes + 1.0)
    # an integrand that overflows gives an infinite or NaN gap: the suite fails, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = half * ((weight(u) * np.exp(-u)) @ weights)
        energy = half * ((f_inv(u) ** 2 - f_inv.derivative_at(u) ** 2) @ weights)
    profile = f_inv(ts)
    try:
        bound_gap = np.abs(subfunction_bound(f_inv, ts) - energy / profile)
    except (NonPositiveProfileError, ValueError):
        # h is undefined: f_inv is not positive, or its energy series overflows
        bound_gap = np.full(ts.shape, np.inf)
    gaps = zip(
        ts.tolist(), np.abs(profile - np.exp(ts) * (1.0 - weighted)).tolist(), bound_gap.tolist()
    )
    details: list[Detail] = []
    for t, profile_gap, bound_gap in gaps:
        if t > 0.0:
            details.append(("f_inv-closed-vs-integral", t, profile_gap))
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
