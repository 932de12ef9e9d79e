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
verdict needs no division by F.  Q is one series with exact coefficients,
`FourierSeries._admissibility`, built once per pair (F, g) and read, as F
is, by one inverse FFT per grid.  The build measures the four conditions
of the verdict, each once, and names each failure after its condition:

    F(0) = 1  (weight-identity),      g(0) = 0  (g-boundary),
    F > 0     (profile-positivity),   Q > 0     (discriminant).

F(0) and g(0) are read in closed form, a0 plus the cosine coefficients;
min F and min Q on the build grid.  The two equalities share one
tolerance, the two strict inequalities one margin.  The report keeps two
consequences of them as diagnostics, which decide nothing: the
initial-slope margin Q(0) = g'(0) + 1 - F'(0)^2 and the integral
inequality int_0^{2pi} (F^2 - F'^2) dt = 2*pi mean(Q) > 0.  The
discriminant's grid maximum decides nothing Q does not either, so the
report derives it from (F, g) when it is first read.  A third
consequence, the comparison bound g + h > 0 on (0, 2*pi] with

    h(t) = (1/F(t)) * int_0^t (F^2 - F'^2) du,   F (g + h) = int_0^t Q,

is available pointwise as `subfunction_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPositiveProfileError
from .fourier import (
    DEFAULT_GRID, DELTA_STRICT, TOL_EQ, TWO_PI, FourierSeries, _grid_min, min_grid_points,
)

TRIVIAL_G = FourierSeries(0.0)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs, recorded in every validation report.

    Both values must be finite and non-negative; anything else raises
    ValueError.
    """

    tol_eq: float = TOL_EQ           # |F(0) - 1| and |g(0)|
    delta_strict: float = DELTA_STRICT  # required margin of F and Q on the grid

    def __post_init__(self) -> None:
        values = (self.tol_eq, self.delta_strict)
        if not all(map(math.isfinite, values)) or min(values) < 0.0:
            raise ValueError(f"tolerances must be finite and >= 0; got {self}")


@dataclass(frozen=True)
class Failure:
    """One violated condition: which, where on [0, 2*pi) (None if global), value."""

    condition: str
    where: float | None
    value: float


@dataclass(frozen=True)
class ValidationReport:
    """Structured outcome of the admissibility check for one spec (F, g).

    The verdict is f0_residual = |F(0) - 1| and g0_residual = |g(0)| within
    tol_eq, and f_inv_min and q_min above delta_strict: the four
    measurements the build makes.  The initial-slope margin and the
    integral are diagnostics implied by them.  So is the discriminant
    -Q/F^4 (NaN where F > 0 fails), whose grid maximum and angle are
    computed from f_inv, g and grid_n the first time either is read, and
    kept as two floats.
    """

    f_inv: FourierSeries = field(repr=False)
    g: FourierSeries = field(repr=False)
    f_inv_min: float          # grid minimum of the reciprocal profile
    f_inv_argmin: float
    q_min: float              # grid minimum of the admissibility polynomial Q
    q_argmin: float
    initial_slope_margin: float  # Q(0), the grid's first sample
    integral_value: float     # int_0^{2pi} (f_inv^2 - f_inv'^2) dt
    f0_residual: float
    g0_residual: float
    grid_n: int
    tolerances: Tolerances
    verdict: bool
    failures: tuple[Failure, ...] = field(default_factory=tuple)

    @cached_property
    def _discriminant(self) -> tuple[float, float | None]:
        """The discriminant's grid maximum and its angle; no angle when the
        maximum is NaN, as it is once F <= 0 at a sample or Q overflows."""
        neg_max, where = _grid_min(-_q_on_grid(self.f_inv, self.g, self.grid_n)[1])
        return -neg_max, None if math.isnan(neg_max) else where

    @property
    def discriminant_max(self) -> float:
        return self._discriminant[0]

    @property
    def discriminant_argmax(self) -> float | None:
        return self._discriminant[1]


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
    e^t (1 - int_0^t weight(u) e^-u du) whenever the weight identity
    F(0) = 1 holds, which `build_loop_spec` checks with the rest of the spec.
    """
    return weight._profile


def weight_from_f_inv(f_inv: FourierSeries) -> FourierSeries:
    """Weight series f_inv - f_inv', the exact inverse of f_inv_from_weight."""
    return f_inv - f_inv.derivative()


def solve_g_const(cos: tuple[float, ...]) -> float:
    """Constant term making g(0) = 0 exact: the negated sum of cosine coefficients."""
    return -sum(cos)


def integral_inequality_value(f_inv: FourierSeries) -> float:
    """int_0^{2pi} (f_inv^2 - f_inv'^2) dt; only the constant mode survives.

    NaN when f_inv^2 - f_inv'^2 has a coefficient beyond the float range,
    since no FourierSeries holds a non-finite coefficient.
    """
    try:
        return TWO_PI * f_inv._energy.a0
    except ValueError:
        return math.nan


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
    lowest, where = _grid_min(f_inv._on_grid(max(grid_n, min_grid_points(f_inv))))
    if not lowest > 0.0:
        raise NonPositiveProfileError(f"reciprocal profile reaches {lowest:.3e} at t={where:.6f}")
    return f_inv._energy.integral_from_zero(t) / f_inv(t)


def _at_zero(series: FourierSeries) -> float:
    """series(0) in closed form: a0 plus the cosine coefficients.

    At t = 0 (cos 0 = 1, sin 0 = 0) these are the additions Horner's rule
    makes, in the same order, so the value is `series(0.0)` up to the
    sign of an exact zero.
    """
    return series.a0 + sum(reversed(series.cos))


def _q_samples(f_inv: FourierSeries, g: FourierSeries, n: int) -> np.ndarray:
    """Q on the n-point grid, the cached samples of the series Q.

    All NaN, without a warning, when a coefficient of Q leaves the float
    range; Q > 0 fails on NaN.
    """
    q = f_inv._admissibility(g)
    return np.full(n, np.nan) if q is None else q._on_grid(n)


def _q_on_grid(f_inv: FourierSeries, g: FourierSeries, n: int):
    """Q and the discriminant -Q/F^4 (NaN where F <= 0) on the n-point grid,
    from the cached samples of the series Q and of F = f_inv."""
    q = _q_samples(f_inv, g, n)
    fh = f_inv._on_grid(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return q, np.where(fh > 0.0, -q / fh**4, np.nan)


def _validate(
    f_inv: FourierSeries, g: FourierSeries, grid_n: int, tol: Tolerances
) -> ValidationReport:
    """Measure F(0), g(0), min F and min Q once each; each failure names one condition.

    The grid is max(grid_n, `min_grid_points` of F and g) angles, recorded
    as the report's grid_n: the one grid the spec is sampled on, which
    suite `baer` reads too.  Every comparison is written to fail on NaN.
    """
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g))
    f0_res = abs(_at_zero(f_inv) - 1.0)
    g0_res = abs(_at_zero(g))
    f_min, f_argmin = _grid_min(f_inv._on_grid(n))
    q = _q_samples(f_inv, g, n)
    q_min, q_argmin = _grid_min(q)
    failures = tuple(
        Failure(name, where, value)
        for failed, name, where, value in (
            (not f0_res <= tol.tol_eq, "weight-identity", None, f0_res),
            (not f_min > tol.delta_strict, "profile-positivity", f_argmin, f_min),
            (not g0_res <= tol.tol_eq, "g-boundary", 0.0, g0_res),
            (not q_min > tol.delta_strict, "discriminant", q_argmin, q_min),
        )
        if failed
    )
    return ValidationReport(
        f_inv=f_inv,
        g=g,
        f_inv_min=f_min,
        f_inv_argmin=f_argmin,
        q_min=q_min,
        q_argmin=q_argmin,
        initial_slope_margin=float(q[0]),
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
