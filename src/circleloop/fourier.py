"""Truncated Fourier series: evaluation, termwise calculus, and admissibility.

A truncated Fourier series is the trigonometric polynomial

    s(t) = a0 + sum_{k=1..K} (cos_k * cos(k t) + sin_k * sin(k t)),

2*pi-periodic by construction.  With D_k = cos_k - i sin_k its calculus is
exact coefficient arithmetic, and every pointwise quantity is a series:

    s(t)             = a0 + Re sum_k D_k e^{ikt}
    s'(t)            = Re sum_k ik D_k e^{ikt}            (the derivative series)
    int_0^t s(u) du  = a0 t + A(t) - A(0),   A: D_k -> D_k/(ik).

Each derived series (derivative, antiderivative A, profile P, energy
s^2 - s'^2) is built once per series, and every series is read by one of
two paths: at arbitrary points, Horner's rule in real arithmetic on
(cos t, sin t), one sincos per point and then O(K) multiply-adds; on the
uniform grid t_j = 2*pi*j/n, one inverse real FFT, exact for K < n/2 and
kept per n.  No coefficient is ever estimated from samples, and
`_grid_min` is the one reading of a grid's minimum and its angle.

A weight series w generates the reciprocal profile
F(t) = e^t (1 - int_0^t w(u) e^-u du).  The profile series P, which keeps
a0 and maps D_k to D_k/(1 - ik), solves P - P' = w, so
(e^-t P)' = -e^-t w and int_0^t w(u) e^-u du = P(0) - e^-t P(t); hence
F = P exactly when P(0) = 1.  `_profile` is that map, built once per
weight.  The builder checks the positivity of F, a strict inequality on
a continuum, on a uniform grid of at least 4K+16 points together with a
positive margin.  Such a grid resolves every harmonic but decides nothing
between its points.  The admissibility polynomial Q in `builder` is
sampled the same way, and has degree max(K_F + K_g, 2 K_F): a spec whose
negative Q minimum falls between two samples is admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGridError

TWO_PI = 2.0 * np.pi

#: equality tolerance for the admissibility identity
TOL_EQ = 1e-10
#: required margin when certifying a strict inequality on a grid
DELTA_STRICT = 1e-9
#: default grid size for strict-inequality scans
DEFAULT_GRID = 4096


def _horner(terms: list, t):
    """Re sum_{k>=1} terms[k-1] e^{ikt} at arbitrary t, by Horner's rule in real arithmetic.

    One sincos per point, then O(K) multiply-adds.  A float array for an
    array t, a Python float for a 0-d t, and zeros without a sincos when
    there are no terms.
    """
    t = np.asarray(t, dtype=float)
    if not terms:
        return np.zeros(t.shape) if t.shape else 0.0
    c, s = np.cos(t), np.sin(t)
    if not t.shape:
        c, s = float(c), float(s)
    re, im = terms[-1].real, terms[-1].imag
    for q in terms[-2::-1]:
        re, im = re * c - im * s + q.real, re * s + im * c + q.imag
    return re * c - im * s


def _float(out):
    """A 0-d result as a Python float; arrays unchanged."""
    return out if np.ndim(out) else float(out)


def _irfft(n: int, const: float, d: np.ndarray) -> np.ndarray:
    """const + Re sum_k d_k e^{ik t_j} at t_j = 2*pi*j/n, j < n, by one inverse real FFT.

    X_0 = n const and X_k = (n/2) d_k; exact for K < n/2, and
    InvalidGridError otherwise, since higher harmonics would alias.
    """
    if 2 * d.size >= n:
        raise InvalidGridError(
            f"a grid of {n} points aliases {d.size} harmonics; it needs more than {2 * d.size}"
        )
    x = np.zeros(n // 2 + 1, dtype=complex)
    x[0] = n * const
    x[1 : d.size + 1] = 0.5 * n * d
    return np.fft.irfft(x, n)


def _grid_min(samples: np.ndarray) -> tuple[float, float]:
    """Minimum of samples on the uniform grid t_j = 2*pi*j/n, and its angle.

    The angle is j * (2*pi/n), bit for bit the grid's own angle; ties and
    NaN go to the first sample, as `argmin` does.
    """
    j = int(samples.argmin())
    return float(samples[j]), j * (TWO_PI / samples.size)


@dataclass(frozen=True)
class FourierSeries:
    """Finite trigonometric polynomial a0 + sum(cos_k cos kt + sin_k sin kt)."""

    a0: float
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cos", tuple(map(float, self.cos)))
        object.__setattr__(self, "sin", tuple(map(float, self.sin)))
        object.__setattr__(self, "a0", float(self.a0))
        if len(self.cos) != len(self.sin):
            raise ValueError(
                f"cos and sin coefficient lists differ in length: "
                f"{len(self.cos)} vs {len(self.sin)}"
            )
        if not np.isfinite((self.a0, *self.cos, *self.sin)).all():
            raise ValueError("all coefficients must be finite")

    @property
    def harmonics(self) -> int:
        """Number of harmonics K (0 for a constant series)."""
        return len(self.cos)

    @cached_property
    def _d(self) -> np.ndarray:
        """D_k = cos_k - i sin_k, k = 1..K: s(t) = a0 + Re sum_k D_k e^{ikt}."""
        return np.array(self.cos) - 1j * np.array(self.sin)

    @cached_property
    def _ik(self) -> np.ndarray:
        return 1j * np.arange(1, self.harmonics + 1)

    @cached_property
    def _value_terms(self) -> list:
        return self._d.tolist()

    @cached_property
    def _derivative(self) -> "FourierSeries":
        d = self._ik * self._d
        return FourierSeries(0.0, d.real.tolist(), (-d.imag).tolist())

    @cached_property
    def _antiderivative(self) -> "FourierSeries":
        """A with A' = s - a0 and no constant term: D_k -> D_k/(ik)."""
        d = self._d / self._ik
        return FourierSeries(0.0, d.real.tolist(), (-d.imag).tolist())

    @cached_property
    def _profile(self) -> "FourierSeries":
        """The reciprocal profile this series generates as a weight: a0 kept,
        D_k -> D_k/(1 - ik)."""
        k = np.arange(1, self.harmonics + 1)
        c, s = np.array(self.cos), np.array(self.sin)
        return FourierSeries(
            self.a0, ((c + k * s) / (1 + k * k)).tolist(), ((s - k * c) / (1 + k * k)).tolist()
        )

    @cached_property
    def _energy(self) -> "FourierSeries":
        """s^2 - s'^2 with exact coefficients; for a reciprocal profile, the
        integrand of the comparison bound and of the integral inequality."""
        d = self.derivative()
        return self * self - d * d

    # The arbitrary-point path.

    def __call__(self, t):
        """Evaluate at t (scalar or array, radians)."""
        return self.a0 + _horner(self._value_terms, t)

    def derivative_at(self, t):
        """Evaluate the derivative sum k(-cos_k sin kt + sin_k cos kt) at t."""
        return self.derivative()(t)

    def integral_from_zero(self, t):
        """int_0^t s(u) du = a0 t + A(t) - A(0), A the antiderivative series; exactly 0 at t = 0."""
        t = np.asarray(t, dtype=float)
        a = self._antiderivative
        return _float(self.a0 * t + (a(t) - a(0.0)))

    # The uniform-grid path: t_j = 2*pi*j/n, j < n.

    def _on_grid(self, n: int) -> np.ndarray:
        """Values at the n grid angles (`__call__` there), by one inverse real FFT.

        Kept per n and read-only: the checks of one build, and every
        `subfunction_bound` call on one profile, share a single transform.
        """
        grids = self.__dict__.setdefault("_grids", {})
        if n not in grids:
            grids[n] = _irfft(n, self.a0, self._d)
            grids[n].flags.writeable = False
        return grids[n]

    def derivative(self) -> "FourierSeries":
        """Termwise derivative as a series (constant term drops), built once."""
        return self._derivative

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
        prod = np.convolve(_complex_coeffs(self), _complex_coeffs(other))
        half = prod[self.harmonics + other.harmonics :]  # modes 0..K
        return FourierSeries(
            half[0].real, (2.0 * half[1:].real).tolist(), (-2.0 * half[1:].imag).tolist()
        )


def _complex_coeffs(s: FourierSeries) -> np.ndarray:
    """Coefficients c_m, m = -K..K, of s as sum c_m exp(i m t)."""
    half = 0.5 * s._d
    return np.concatenate((half[::-1].conj(), [s.a0], half))


def solve_a0(cos: tuple[float, ...], sin: tuple[float, ...]) -> float:
    """Constant term making the weight identity F(0) = 1 exact.

    Returns 1 - sum (cos_k + k sin_k)/(1+k^2), so that the profile the
    resulting weight series generates is 1 at t = 0 by construction.
    """
    return 1.0 - float(np.sum(FourierSeries(0.0, cos, sin)._profile.cos))


def min_grid_points(series: FourierSeries) -> int:
    """Smallest grid that resolves every harmonic of `series` for strict checks."""
    return 4 * series.harmonics + 16

