"""Build and validate the function pair (f, g) that defines a circle loop.

A loop spec consists of a strictly positive profile f with f(0) = 1 and a
shear g with g(0) = 0, both 2*pi-periodic and C^1; together they define
the unimodular-matrix section

    t  |->  rot(t) @ [[f(t), g(t)], [0, 1/f(t)]].

f is stored through its reciprocal f_inv = 1/f, the natural object: a
weight series w with admissible coefficients generates

    f_inv(t) = e^t (1 - int_0^t w(u) e^-u du)
             = a0 + sum [ (a_k + k b_k) cos kt + (b_k - k a_k) sin kt ] / (1+k^2),

a trigonometric polynomial with f_inv(0) = f_inv(2*pi) = 1 forced by the
weight identity.  Conversely w = f_inv - f_inv'.

The section defines a loop multiplication exactly when, for every real w,

    w^2 (g'f + g f' + g^2 f^2 + 1) + w (-2 f f' - 2 g f^3) + f^4  >  0,

which (the quadratic having positive constant term f^4) is equivalent to
the pointwise discriminant condition

    f'^2 + g f^2 f' - g' f^3 - f^2 < 0     for all t,

together with the initial-slope condition g'(0) > f'^2(0) - 1.  That pair
is the authoritative admissibility test here.  A consequence, reported
alongside, is the comparison bound g(t) > -h(t) on (0, 2*pi) with

    h(t) = (1/f_inv(t)) * int_0^t (f_inv^2 - f_inv'^2) du,

whose endpoint value gives the integral inequality
int_0^{2pi} (f_inv^2 - f_inv'^2) dt >= 0.
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
    tol_boundary: float = 1e-9       # |f(0)-1|, |g(0)|, |g(2pi)|
    tol_root: float = 1e-12          # bisection width for right division
    tol_det: float = 1e-9            # determinant drift


@dataclass(frozen=True)
class Failure:
    """One violated condition: which, where on [0, 2*pi) (None if global), value."""

    condition: str
    where: float | None
    value: float


@dataclass(frozen=True)
class DiscriminantCheck:
    """Grid maximum of f'^2 + g f^2 f' - g' f^3 - f^2 (admissible iff < 0)."""

    max_value: float
    argmax: float
    initial_slope_margin: float  # g'(0) - f'^2(0) + 1, must be > 0


@dataclass(frozen=True)
class ValidationReport:
    """Structured outcome of every admissibility condition for one spec."""

    weight_check: WeightReport
    f_inv_min: float          # grid minimum of the reciprocal profile
    f_inv_argmin: float
    discriminant_max: float
    discriminant_argmax: float
    initial_slope_margin: float
    g_bound_margin: float
    g_bound_argmin: float
    integral_value: float     # int_0^{2pi} (f_inv^2 - f_inv'^2) dt
    f0_residual: float
    g0_residual: float
    g2pi_residual: float
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


def _discriminant(fh, fhp, g, gp):
    """Pointwise f'^2 + g f^2 f' - g' f^3 - f^2 (f = 1/f_inv), from samples
    of f_inv, f_inv', g and g' at the same angles.

    Not finite where f_inv vanishes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 / fh
        fp = -fhp / (fh * fh)
        return fp * fp + g * f * f * fp - gp * f * f * f - f * f


def check_discriminant(
    f_inv: FourierSeries, g: FourierSeries, grid_n: int = DEFAULT_GRID
) -> DiscriminantCheck:
    """Evaluate f'^2 + g f^2 f' - g' f^3 - f^2 on the grid (f = 1/f_inv).

    Returns the grid maximum (admissible iff < 0), where it is attained,
    and the initial-slope margin g'(0) - f'^2(0) + 1 (must be > 0).
    """
    n = max(grid_n, min_grid_points(f_inv), min_grid_points(g))
    ts = uniform_grid(n)
    disc = _discriminant(
        *(s._on_grid(n) for s in (f_inv, f_inv.derivative(), g, g.derivative()))
    )
    if not np.all(np.isfinite(disc)):
        bad = int(np.nonzero(~np.isfinite(disc))[0][0])
        return DiscriminantCheck(float("nan"), float(ts[bad]), float("nan"))
    i = int(disc.argmax())
    fp0 = -f_inv.derivative_at(0.0) / f_inv(0.0) ** 2
    slope_margin = g.derivative_at(0.0) - fp0 * fp0 + 1.0
    return DiscriminantCheck(float(disc[i]), float(ts[i]), float(slope_margin))


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
    if wrep.positivity_margin <= tol.delta_strict:
        failures.append(Failure("weight-positivity", None, wrep.positivity_margin))
    if wrep.energy_slack < -tol.tol_eq:
        failures.append(Failure("weight-energy", None, wrep.energy_slack))

    fh = f_inv._on_grid(n)
    i = int(fh.argmin())
    f_min, f_argmin = float(fh[i]), float(uniform_grid(n)[i])
    if f_min <= tol.delta_strict:
        failures.append(Failure("profile-positivity", f_argmin, f_min))

    f0_res = abs(float(f_inv(0.0)) - 1.0)
    g0_res = abs(float(g(0.0)))
    g2pi_res = abs(float(g(TWO_PI)))
    if f0_res > tol.tol_boundary:
        failures.append(Failure("profile-boundary", 0.0, f0_res))
    if g0_res > tol.tol_boundary:
        failures.append(Failure("g-boundary", 0.0, g0_res))
    if g2pi_res > tol.tol_boundary:
        failures.append(Failure("g-boundary", TWO_PI, g2pi_res))

    integral = integral_inequality_value(f_inv)
    if integral < -tol.delta_strict:
        failures.append(Failure("integral-inequality", None, integral))

    # checks below need 1/f_inv; skip them (as NaN) when positivity already failed
    if f_min > 0.0:
        disc = check_discriminant(f_inv, g, n)
        if not disc.max_value < -tol.delta_strict:
            failures.append(Failure("discriminant", disc.argmax, disc.max_value))
        if not disc.initial_slope_margin > tol.delta_strict:
            failures.append(Failure("initial-slope", 0.0, disc.initial_slope_margin))
        g_margin, g_argmin = check_g_bound(f_inv, g, n)
        if not g_margin > tol.delta_strict:
            failures.append(Failure("g-lower-bound", g_argmin, g_margin))
    else:
        disc = DiscriminantCheck(float("nan"), float("nan"), float("nan"))
        g_margin, g_argmin = float("nan"), float("nan")

    return ValidationReport(
        weight_check=wrep,
        f_inv_min=f_min,
        f_inv_argmin=f_argmin,
        discriminant_max=disc.max_value,
        discriminant_argmax=disc.argmax,
        initial_slope_margin=disc.initial_slope_margin,
        g_bound_margin=g_margin,
        g_bound_argmin=g_argmin,
        integral_value=integral,
        f0_residual=f0_res,
        g0_residual=g0_res,
        g2pi_residual=g2pi_res,
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
