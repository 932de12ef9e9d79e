"""Truncated Fourier series: evaluation, termwise calculus, and admissibility.

A truncated Fourier series is the trigonometric polynomial

    s(t) = a0 + sum_{k=1..K} (cos_k * cos(k t) + sin_k * sin(k t)),

2*pi-periodic by construction.  Everything here is exact coefficient
arithmetic plus pointwise evaluation; no FFT and no coefficient estimation
from samples.

A weight series is admissible when it satisfies three conditions:

  (i)   a0 + sum (cos_k + k sin_k)/(1+k^2) = 1          (exact identity),
  (ii)  the reciprocal profile it generates stays strictly positive,
  (iii) 2 a0 >= sum (cos_k^2 + sin_k^2)(k^2-1)/(k^2+1)   (energy bound).

Condition (ii) is a strict inequality on a continuum; it is checked on a
uniform grid of at least 4K+16 points together with a positive margin,
which is conservative for a trigonometric polynomial with K harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidGridError

TWO_PI = 2.0 * np.pi

#: equality tolerance for the admissibility identity
TOL_EQ = 1e-10
#: required margin when certifying a strict inequality on a grid
DELTA_STRICT = 1e-9
#: default grid size for strict-inequality scans
DEFAULT_GRID = 4096


@dataclass(frozen=True)
class FourierSeries:
    """Finite trigonometric polynomial a0 + sum(cos_k cos kt + sin_k sin kt)."""

    a0: float
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cos", tuple(float(c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(float(s) for s in self.sin))
        object.__setattr__(self, "a0", float(self.a0))
        if len(self.cos) != len(self.sin):
            raise ValueError(
                f"cos and sin coefficient lists differ in length: "
                f"{len(self.cos)} vs {len(self.sin)}"
            )
        values = (self.a0, *self.cos, *self.sin)
        if not all(np.isfinite(values)):
            raise ValueError("all coefficients must be finite")

    @property
    def harmonics(self) -> int:
        """Number of harmonics K (0 for a constant series)."""
        return len(self.cos)

    def __call__(self, t):
        """Evaluate at t (scalar or array, radians)."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0)
        for k, (ck, sk) in enumerate(zip(self.cos, self.sin), start=1):
            out += ck * np.cos(k * t) + sk * np.sin(k * t)
        return out if out.shape else float(out)

    def derivative_at(self, t):
        """Evaluate the derivative sum k(-cos_k sin kt + sin_k cos kt) at t."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for k, (ck, sk) in enumerate(zip(self.cos, self.sin), start=1):
            out += k * (-ck * np.sin(k * t) + sk * np.cos(k * t))
        return out if out.shape else float(out)

    def derivative(self) -> "FourierSeries":
        """Termwise derivative as a new series (constant term drops)."""
        ks = range(1, self.harmonics + 1)
        return FourierSeries(
            0.0,
            tuple(k * sk for k, sk in zip(ks, self.sin)),
            tuple(-k * ck for k, ck in zip(ks, self.cos)),
        )

    def exp_weighted_integral(self, t):
        """Closed form of int_0^t s(u) exp(-u) du.

        Uses the antiderivatives

            int_0^t cos(ku) e^-u du = (1 + k sin(kt) e^-t - cos(kt) e^-t)/(1+k^2)
            int_0^t sin(ku) e^-u du = (k - k cos(kt) e^-t - sin(kt) e^-t)/(1+k^2)
        """
        t = np.asarray(t, dtype=float)
        et = np.exp(-t)
        out = self.a0 * (1.0 - et)
        for k, (ck, sk) in enumerate(zip(self.cos, self.sin), start=1):
            ckt, skt = np.cos(k * t), np.sin(k * t)
            out += ck * (1.0 + k * skt * et - ckt * et) / (1 + k * k)
            out += sk * (k - k * ckt * et - skt * et) / (1 + k * k)
        return out if out.shape else float(out)

    def integral_from_zero(self, t):
        """Evaluate int_0^t s(u) du (a linear term plus a trigonometric polynomial)."""
        t = np.asarray(t, dtype=float)
        out = self.a0 * t
        for k, (ck, sk) in enumerate(zip(self.cos, self.sin), start=1):
            out += ck * np.sin(k * t) / k + sk * (1.0 - np.cos(k * t)) / k
        return out if out.shape else float(out)

    def mean(self) -> float:
        """Average over one period (the constant term)."""
        return self.a0

    def reflected(self) -> "FourierSeries":
        """The series t |-> s(-t): sine coefficients change sign."""
        return FourierSeries(self.a0, self.cos, tuple(-s for s in self.sin))

    def __neg__(self) -> "FourierSeries":
        return FourierSeries(-self.a0, tuple(-c for c in self.cos), tuple(-s for s in self.sin))

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        k = max(self.harmonics, other.harmonics)
        pad = lambda xs: tuple(xs) + (0.0,) * (k - len(xs))
        return FourierSeries(
            self.a0 + other.a0,
            tuple(x + y for x, y in zip(pad(self.cos), pad(other.cos))),
            tuple(x + y for x, y in zip(pad(self.sin), pad(other.sin))),
        )

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "FourierSeries") -> "FourierSeries":
        """Exact product of two series (degree adds).

        Computed by convolving complex exponential coefficients
        c_0 = a0, c_k = (cos_k - i sin_k)/2, c_-k = conj(c_k).
        """
        if not isinstance(other, FourierSeries):
            return NotImplemented
        ca, cb = _complex_coeffs(self), _complex_coeffs(other)
        prod = np.convolve(ca, cb)
        kmax = self.harmonics + other.harmonics
        mid = kmax  # index of the zero mode
        a0 = prod[mid].real
        cos = tuple(2.0 * prod[mid + k].real for k in range(1, kmax + 1))
        sin = tuple(-2.0 * prod[mid + k].imag for k in range(1, kmax + 1))
        return FourierSeries(a0, cos, sin)


def _complex_coeffs(s: FourierSeries) -> np.ndarray:
    """Coefficients c_m, m = -K..K, of s as sum c_m exp(i m t)."""
    k = s.harmonics
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k] = s.a0
    for j, (cj, sj) in enumerate(zip(s.cos, s.sin), start=1):
        c[k + j] = 0.5 * (cj - 1j * sj)
        c[k - j] = 0.5 * (cj + 1j * sj)
    return c


def solve_a0(cos: tuple[float, ...], sin: tuple[float, ...]) -> float:
    """Constant term making the admissibility identity exact.

    Returns 1 - sum (cos_k + k sin_k)/(1+k^2) so that the resulting weight
    series satisfies condition (i) by construction.
    """
    return 1.0 - sum(
        (ck + k * sk) / (1 + k * k)
        for k, (ck, sk) in enumerate(zip(cos, sin), start=1)
    )


@dataclass(frozen=True)
class WeightReport:
    """Outcome of the three admissibility conditions for a weight series.

    identity_residual   |a0 + sum (cos_k + k sin_k)/(1+k^2) - 1|
    positivity_margin   grid minimum of the generated reciprocal profile
    energy_slack        2 a0 - sum (cos_k^2 + sin_k^2)(k^2-1)/(k^2+1)
    """

    identity_residual: float
    positivity_margin: float
    energy_slack: float
    grid_size: int
    verdict: bool


def min_grid_points(series: FourierSeries) -> int:
    """Smallest grid that resolves every harmonic of `series` for strict checks."""
    return 4 * series.harmonics + 16


def check_weight(
    series: FourierSeries,
    grid_n: int = DEFAULT_GRID,
    *,
    tol_eq: float = TOL_EQ,
    delta_strict: float = DELTA_STRICT,
) -> WeightReport:
    """Check the three admissibility conditions for a weight series.

    The positivity margin is the minimum over a uniform grid of grid_n
    points on [0, 2*pi) of

        a0 - sum [ (k cos_k - sin_k) sin(kt) - (cos_k + k sin_k) cos(kt) ] / (1+k^2),

    which equals the reciprocal profile the series generates, evaluated at t:
    expanded, it has exactly that profile's coefficients.

    Raises InvalidGridError when grid_n is below 4K+16.
    """
    if grid_n < min_grid_points(series):
        raise InvalidGridError(
            f"grid_n={grid_n} below resolution bound {min_grid_points(series)} "
            f"for {series.harmonics} harmonics"
        )
    residual = abs(
        series.a0
        + sum(
            (ck + k * sk) / (1 + k * k)
            for k, (ck, sk) in enumerate(zip(series.cos, series.sin), start=1)
        )
        - 1.0
    )
    ts = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    rhs = np.zeros(grid_n)
    for k, (ck, sk) in enumerate(zip(series.cos, series.sin), start=1):
        rhs += ((k * ck - sk) * np.sin(k * ts) - (ck + k * sk) * np.cos(k * ts)) / (1 + k * k)
    margin = float(series.a0 - rhs.max())
    slack = 2.0 * series.a0 - sum(
        (ck * ck + sk * sk) * (k * k - 1) / (k * k + 1)
        for k, (ck, sk) in enumerate(zip(series.cos, series.sin), start=1)
    )
    verdict = residual <= tol_eq and margin > delta_strict and slack >= -tol_eq
    return WeightReport(
        identity_residual=residual,
        positivity_margin=margin,
        energy_slack=float(slack),
        grid_size=grid_n,
        verdict=verdict,
    )


def simpson_quadrature(fn: Callable, lo: float, hi: float, n: int) -> float:
    """Composite Simpson rule with n subintervals (n even), error O(n^-4).

    Independent numerical oracle used to cross-check every closed form in
    this package; `fn` must accept a numpy array.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidGridError(f"Simpson rule needs an even n >= 2, got {n}")
    xs = np.linspace(lo, hi, n + 1)
    ys = np.asarray(fn(xs), dtype=float)
    h = (hi - lo) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))
