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
verdict needs no division by F.  It is four conditions, decided on the
build grid:

    F(0) = 1,   g(0) = 0,   F > 0,   Q > 0.

The report keeps three consequences of them as diagnostics, which decide
nothing: the initial-slope margin Q(0) = g'(0) + 1 - F'(0)^2; the
comparison bound g(t) + h(t) > 0 on (0, 2*pi), where

    h(t) = (1/F(t)) * int_0^t (F^2 - F'^2) du,   F (g + h) = int_0^t Q;

and the integral inequality int_0^{2pi} (F^2 - F'^2) dt = 2*pi mean(Q) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveProfileError, NotAdmissibleError
from .fourier import (
    DEFAULT_GRID,
    DELTA_STRICT,
    TOL_EQ,
    TWO_PI,
    FourierSeries,
    WeightReport,
    check_weight,
    min_grid_points,
)

TRIVIAL_G = FourierSeries(0.0)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs, recorded in every validation report."""

    tol_eq: float = TOL_EQ           # equality residuals
    delta_strict: float = DELTA_STRICT  # required margin for strict inequalities on grids
    tol_boundary: float = 1e-9       # |f(0)-1|, |g(0)|
    tol_root: float = 1e-12          # bisection width for right division


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

    The verdict is F(0) = 1 (weight identity and f0 residuals), g(0) = 0,
    F > 0 and Q > 0 on the grid.  The discriminant, the initial-slope and
    g-bound margins and the integral are diagnostics implied by them (NaN
    where they need F > 0 and it fails).
    """

    weight_check: WeightReport
    f_inv_min: float          # grid minimum of the reciprocal profile
    f_inv_argmin: float
    discriminant_max: float
    discriminant_argmax: float
    q_min: float              # grid minimum of the admissibility polynomial Q
    q_argmin: float
    initial_slope_margin: float
    g_bound_margin: float
    g_bound_argmin: float
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


def f_inv_from_weight(
    weight: FourierSeries,
    *,
    validate: bool = True,
    grid_n: int = DEFAULT_GRID,
    tolerances: Tolerances = Tolerances(),
) -> FourierSeries:
    """Reciprocal profile generated by an admissible weight series.

    Coefficient map (the weight's `_profile`, built once per weight):
    cos_k -> (a_k + k b_k)/(1+k^2), sin_k -> (b_k - k a_k)/(1+k^2),
    constant term unchanged.  Agrees
    pointwise with e^t (1 - int_0^t weight(u) e^-u du) whenever the weight
    identity holds.  With validate=True the weight is checked first and
    NotAdmissibleError raised on failure.
    """
    if validate:
        rep = check_weight(
            weight,
            max(grid_n, min_grid_points(weight)),
            tol_eq=tolerances.tol_eq,
            delta_strict=tolerances.delta_strict,
        )
        if not rep.verdict:
            raise NotAdmissibleError(
                "weight series is not admissible: "
                f"identity residual {rep.identity_residual:.3e}, "
                f"positivity margin {rep.positivity_margin:.3e}, "
                f"energy slack {rep.energy_slack:.3e}"
            )
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
    _positive_on_grid(f_inv, max(grid_n, min_grid_points(f_inv)))
    return f_inv._energy.integral_from_zero(t) / f_inv(t)


def _positive_on_grid(f_inv: FourierSeries, n: int) -> np.ndarray:
    """f_inv on the n-point grid; NonPositiveProfileError unless it is > 0 there."""
    fh = f_inv._on_grid(n)
    i = int(fh.argmin())
    if fh[i] <= 0.0:
        raise NonPositiveProfileError(
            f"reciprocal profile reaches {fh[i]:.3e} at t={uniform_grid(n)[i]:.6f}"
        )
    return fh


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


def check_g_bound(
    f_inv: FourierSeries, g: FourierSeries, grid_n: int = DEFAULT_GRID
) -> tuple[float, float]:
    """Minimum of g(t) + h(t) over interior grid points (must be > 0).

    h is `subfunction_bound`, sampled on the grid path.
    """
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g))
    fh = _positive_on_grid(f_inv, n)
    h = f_inv._energy._integral_on_grid(n) / fh
    vals = (g._on_grid(n) + h)[1:]
    i = int(vals.argmin())
    return float(vals[i]), float(uniform_grid(n)[i + 1])


def _validate(
    weight: FourierSeries,
    f_inv: FourierSeries,
    g: FourierSeries,
    grid_n: int,
    tol: Tolerances,
) -> ValidationReport:
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g), min_grid_points(weight))
    failures: list[Failure] = []

    wrep = check_weight(weight, n, tol_eq=tol.tol_eq, delta_strict=tol.delta_strict)
    if wrep.identity_residual > tol.tol_eq:
        failures.append(Failure("weight-identity", None, wrep.identity_residual))

    fh = f_inv._on_grid(n)
    i = int(fh.argmin())
    f_min, f_argmin = float(fh[i]), float(uniform_grid(n)[i])
    if f_min <= tol.delta_strict:
        failures.append(Failure("profile-positivity", f_argmin, f_min))

    f0_res = abs(float(f_inv(0.0)) - 1.0)
    g0_res = abs(float(g(0.0)))
    if f0_res > tol.tol_boundary:
        failures.append(Failure("profile-boundary", 0.0, f0_res))
    if g0_res > tol.tol_boundary:
        failures.append(Failure("g-boundary", 0.0, g0_res))

    disc = check_discriminant(f_inv, g, n)
    if not disc.q_min > tol.delta_strict:
        failures.append(Failure("discriminant", disc.q_argmin, disc.q_min))
    # the comparison bound divides by f_inv: NaN when positivity already failed
    g_margin, g_argmin = check_g_bound(f_inv, g, n) if f_min > 0.0 else (np.nan, np.nan)

    return ValidationReport(
        weight_check=wrep,
        f_inv_min=f_min,
        f_inv_argmin=f_argmin,
        discriminant_max=disc.max_value,
        discriminant_argmax=disc.argmax,
        q_min=disc.q_min,
        q_argmin=disc.q_argmin,
        initial_slope_margin=disc.initial_slope_margin,
        g_bound_margin=g_margin,
        g_bound_argmin=g_argmin,
        integral_value=integral_inequality_value(f_inv),
        f0_residual=f0_res,
        g0_residual=g0_res,
        grid_n=n,
        tolerances=tol,
        verdict=not failures,
        failures=tuple(failures),
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
    f_inv = f_inv_from_weight(weight, validate=False)
    return LoopSpec(
        f_inv=f_inv,
        g=g,
        weight=weight,
        report=_validate(weight, f_inv, g, grid_n, tolerances),
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
    weight = weight_from_f_inv(f_inv)
    return LoopSpec(
        f_inv=f_inv,
        g=g,
        weight=weight,
        report=_validate(weight, f_inv, g, spec.report.grid_n, spec.report.tolerances),
    )
