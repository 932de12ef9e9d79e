"""Build and validate the function pair (f, g) that defines a circle loop.

A loop spec consists of a strictly positive profile f with f(0) = 1 and a
shear g with g(0) = 0, both 2*pi-periodic and C^1; together they define
the unimodular-matrix section

    t  |->  rot(t) @ [[f(t), g(t)], [0, 1/f(t)]].

f is stored through its reciprocal F = f_inv = 1/f, the natural object: a
weight series w with admissible coefficients generates

    F(t) = e^t (1 - int_0^t w(u) e^-u du)
         = a0 + sum [ (a_k + k b_k) cos kt + (b_k - k a_k) sin kt ] / (1+k^2),

a trigonometric polynomial with F(0) = F(2*pi) = 1 forced by the weight
identity.  Conversely w = F - F'.

The section defines a loop multiplication exactly when the discriminant
f'^2 + g f^2 f' - g' f^3 - f^2 is negative everywhere.  Its product with
F^4 is minus the admissibility polynomial

    Q = (gF)' + F^2 - F'^2 = g'F + gF' + F^2 - F'^2,

a trigonometric polynomial of degree max(K_F + K_g, 2 K_F), so the
verdict needs no division by F.  It is four conditions, each measured
once on the build grid and named by its failure:

    F(0) = 1  (weight-identity),      g(0) = 0  (g-boundary),
    F > 0     (profile-positivity),   Q > 0     (discriminant).

The two equalities share one tolerance, the two strict inequalities one
margin.  The report keeps two consequences of them as diagnostics, which
decide nothing: the initial-slope margin Q(0) = g'(0) + 1 - F'(0)^2 and
the integral inequality int_0^{2pi} (F^2 - F'^2) dt = 2*pi mean(Q) > 0.
A third, the comparison bound g + h > 0 on (0, 2*pi] with

    h(t) = (1/F(t)) * int_0^t (F^2 - F'^2) du,   F (g + h) = int_0^t Q,

is available pointwise as `subfunction_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveProfileError
from .fourier import DEFAULT_GRID, DELTA_STRICT, TOL_EQ, TWO_PI, FourierSeries, min_grid_points

TRIVIAL_G = FourierSeries(0.0)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs, recorded in every validation report.

    Every value must be finite, tol_eq and delta_strict non-negative and
    tol_root positive; anything else raises ValueError.
    """

    tol_eq: float = TOL_EQ           # |F(0) - 1| and |g(0)|
    delta_strict: float = DELTA_STRICT  # required margin of F and Q on the grid
    tol_root: float = 1e-12          # bisection width for right division

    def __post_init__(self) -> None:
        finite = all(map(math.isfinite, (self.tol_eq, self.delta_strict, self.tol_root)))
        if not finite or min(self.tol_eq, self.delta_strict) < 0.0 or self.tol_root <= 0.0:
            raise ValueError(
                "tolerances must be finite, with tol_eq, delta_strict >= 0 and "
                f"tol_root > 0; got {self}"
            )


@dataclass(frozen=True)
class Failure:
    """One violated condition: which, where on [0, 2*pi) (None if global), value."""

    condition: str
    where: float | None
    value: float


@dataclass(frozen=True)
class DiscriminantCheck:
    """The admissibility polynomial Q = g'F + gF' + F^2 - F'^2 on the grid.

    q_min decides (admissible iff > 0).  The discriminant -Q/F^4 is a
    diagnostic, NaN where F <= 0; initial_slope_margin is Q(0).
    """

    q_min: float
    q_argmin: float
    max_value: float             # grid maximum of the discriminant
    argmax: float
    initial_slope_margin: float


@dataclass(frozen=True)
class ValidationReport:
    """Structured outcome of the admissibility check for one spec.

    The verdict is f0_residual = |F(0) - 1| and g0_residual = |g(0)| within
    tol_eq, and f_inv_min and q_min above delta_strict.  The discriminant,
    the initial-slope margin and the integral are diagnostics implied by
    them (the discriminant is NaN where F > 0 fails).
    """

    f_inv_min: float          # grid minimum of the reciprocal profile
    f_inv_argmin: float
    discriminant_max: float
    discriminant_argmax: float
    q_min: float              # grid minimum of the admissibility polynomial Q
    q_argmin: float
    initial_slope_margin: float
    integral_value: float     # int_0^{2pi} (f_inv^2 - f_inv'^2) dt
    f0_residual: float
    g0_residual: float
    grid_n: int
    tolerances: Tolerances
    verdict: bool
    failures: tuple[Failure, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class LoopSpec:
    """Validated pair (f_inv, g) plus the weight series it came from."""

    f_inv: FourierSeries
    g: FourierSeries
    weight: FourierSeries
    report: ValidationReport

    @property
    def verdict(self) -> bool:
        return self.report.verdict

    def f(self, t):
        """Profile value f(t) = 1/f_inv(t)."""
        return 1.0 / self.f_inv(t)


def uniform_grid(n: int) -> np.ndarray:
    """n equally spaced angles on [0, 2*pi), starting at 0."""
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def f_inv_from_weight(weight: FourierSeries) -> FourierSeries:
    """Reciprocal profile generated by a weight series.

    Coefficient map (the weight's `_profile`, built once per weight):
    cos_k -> (a_k + k b_k)/(1+k^2), sin_k -> (b_k - k a_k)/(1+k^2),
    constant term unchanged.  Agrees pointwise with
    e^t (1 - int_0^t weight(u) e^-u du) whenever the weight identity holds;
    `check_weight` checks the weight, `build_loop_spec` the whole spec.
    """
    return weight._profile


def weight_from_f_inv(f_inv: FourierSeries) -> FourierSeries:
    """Weight series f_inv - f_inv', the exact inverse of f_inv_from_weight."""
    return f_inv - f_inv.derivative()


def solve_g_const(cos: tuple[float, ...]) -> float:
    """Constant term making g(0) = 0 exact: the negated sum of cosine coefficients."""
    return -sum(cos)


def integral_inequality_value(f_inv: FourierSeries) -> float:
    """int_0^{2pi} (f_inv^2 - f_inv'^2) dt; only the constant mode survives."""
    return TWO_PI * f_inv._energy.a0


def subfunction_bound(f_inv: FourierSeries, t, *, grid_n: int = DEFAULT_GRID):
    """Comparison bound h(t) = (1/f_inv(t)) int_0^t (f_inv^2 - f_inv'^2) du.

    h solves h' + h f_inv'/f_inv + f_inv'^2/f_inv - f_inv = 0 with h(0) = 0
    and h'(0) = 1 - f_inv'(0)^2; an admissible shear must satisfy
    g(t) > -h(t) on (0, 2*pi).  The integrand is a trigonometric
    polynomial, built once per profile, so the integral is evaluated from
    exact coefficients.

    Raises NonPositiveProfileError if f_inv is not strictly positive on
    the check grid.
    """
    n = max(grid_n, min_grid_points(f_inv))
    fh = f_inv._on_grid(n)
    i = int(fh.argmin())
    if not fh[i] > 0.0:
        raise NonPositiveProfileError(
            f"reciprocal profile reaches {fh[i]:.3e} at t={uniform_grid(n)[i]:.6f}"
        )
    return f_inv._energy.integral_from_zero(t) / f_inv(t)


def _admissibility_q(fh, fhp, g, gp):
    """Q = g'F + gF' + F^2 - F'^2 and the discriminant -Q/F^4 (NaN where
    F <= 0), from samples of F = f_inv, F', g and g' at the same angles."""
    q = gp * fh + g * fhp + fh * fh - fhp * fhp
    with np.errstate(divide="ignore", invalid="ignore"):
        return q, np.where(fh > 0.0, -q / fh**4, np.nan)


def check_discriminant(
    f_inv: FourierSeries, g: FourierSeries, grid_n: int = DEFAULT_GRID
) -> DiscriminantCheck:
    """Sample Q = g'F + gF' + F^2 - F'^2 (F = f_inv) on the grid, once.

    Returns its minimum (admissible iff > 0) and where it is attained, the
    discriminant's maximum and where, and Q(0), the grid's first sample.
    """
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g))
    ts = uniform_grid(n)
    q, disc = _admissibility_q(
        *(s._on_grid(n) for s in (f_inv, f_inv.derivative(), g, g.derivative()))
    )
    i, j = int(q.argmin()), int(disc.argmax())
    return DiscriminantCheck(
        float(q[i]), float(ts[i]), float(disc[j]), float(ts[j]), float(q[0])
    )


def _validate(
    f_inv: FourierSeries, g: FourierSeries, grid_n: int, tol: Tolerances
) -> ValidationReport:
    """Measure F(0), g(0), min F and min Q once each; each failure names one condition.

    Every comparison is written to fail on NaN.
    """
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g))
    f0_res = abs(float(f_inv(0.0)) - 1.0)
    g0_res = abs(float(g(0.0)))
    fh = f_inv._on_grid(n)
    i = int(fh.argmin())
    f_min, f_argmin = float(fh[i]), float(uniform_grid(n)[i])
    disc = check_discriminant(f_inv, g, n)
    failures = tuple(
        Failure(name, where, value)
        for failed, name, where, value in (
            (not f0_res <= tol.tol_eq, "weight-identity", None, f0_res),
            (not f_min > tol.delta_strict, "profile-positivity", f_argmin, f_min),
            (not g0_res <= tol.tol_eq, "g-boundary", 0.0, g0_res),
            (not disc.q_min > tol.delta_strict, "discriminant", disc.q_argmin, disc.q_min),
        )
        if failed
    )
    return ValidationReport(
        f_inv_min=f_min,
        f_inv_argmin=f_argmin,
        discriminant_max=disc.max_value,
        discriminant_argmax=disc.argmax,
        q_min=disc.q_min,
        q_argmin=disc.q_argmin,
        initial_slope_margin=disc.initial_slope_margin,
        integral_value=integral_inequality_value(f_inv),
        f0_residual=f0_res,
        g0_residual=g0_res,
        grid_n=n,
        tolerances=tol,
        verdict=not failures,
        failures=failures,
    )


def build_loop_spec(
    weight: FourierSeries,
    g: FourierSeries = TRIVIAL_G,
    grid_n: int = DEFAULT_GRID,
    tolerances: Tolerances = Tolerances(),
) -> LoopSpec:
    """Construct a loop spec from a weight series and a shear, fully validated.

    Never raises on numeric input: an inadmissible pair comes back as a
    LoopSpec whose report has verdict False and a populated failure list.
    """
    f_inv = f_inv_from_weight(weight)
    return LoopSpec(
        f_inv=f_inv, g=g, weight=weight, report=_validate(f_inv, g, grid_n, tolerances)
    )


def reflect_spec(spec: LoopSpec) -> LoopSpec:
    """The mirror spec (f(-t), -g(-t)), revalidated.

    On coefficients: f_inv keeps cosines and flips sines; g flips constant
    and cosines and keeps sines.  Applying the reflection twice restores
    f_inv and g bit for bit.  The mirror of an admissible spec is again
    admissible, and the two define isomorphic loops.
    """
    f_inv = spec.f_inv.reflected()
    g = -spec.g.reflected()
    return LoopSpec(
        f_inv=f_inv,
        g=g,
        weight=weight_from_f_inv(f_inv),
        report=_validate(f_inv, g, spec.report.grid_n, spec.report.tolerances),
    )
