"""Independent reference used to check circleloop's outputs.

Nothing here imports circleloop.  A series is a tuple (a0, cos, sin) of the
trigonometric polynomial a0 + sum_k cos_k cos(kt) + sin_k sin(kt).  Values
come from explicit outer-product sums, products of series from exact
convolution of complex Fourier coefficients, and signs on the whole circle
from a derivative bound on a uniform FFT grid:

    |P(t) - P(t_j)| <= (pi / n) * sum_m |m| |c_m|

for the grid point t_j nearest t.  A sign is decided only when the grid
margin beats that bound; otherwise the answer is None (undecided).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
#: margin by which every condition must hold for a spec to count as admissible
HOLD_MARGIN = 1e-6
_MAX_GRID = 1 << 20
#: the uniform grid circleloop's certifier samples for K <= 1020, and the
#: margin it asks of a strict inequality there (DEFAULT_GRID, DELTA_STRICT)
SAMPLED_GRID = 4096
SAMPLED_MARGIN = 1e-9


def _arrays(series):
    a0, cos, sin = series
    return float(a0), np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)


def profile_from_weight(weight):
    """Reciprocal profile F = 1/f generated by a weight series (F - F' = weight)."""
    a0, a, b = _arrays(weight)
    k = np.arange(1, a.size + 1, dtype=float)
    return a0, (a + k * b) / (1 + k * k), (b - k * a) / (1 + k * k)


def weight_from_profile(profile):
    """Weight series F - F' for a reciprocal profile F."""
    a0, c, s = _arrays(profile)
    k = np.arange(1, c.size + 1, dtype=float)
    return a0, c - k * s, s + k * c


def evaluate(series, t, chunk: int = 4096) -> np.ndarray:
    """Series values at the angles t (any shape)."""
    a0, c, s = _arrays(series)
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.full(flat.shape, a0)
    if c.size:
        k = np.arange(1, c.size + 1, dtype=float)
        for i in range(0, flat.size, chunk):
            kt = np.multiply.outer(flat[i:i + chunk], k)
            out[i:i + chunk] += np.cos(kt) @ c + np.sin(kt) @ s
    return out.reshape(t.shape)


def _rotations(x: np.ndarray) -> np.ndarray:
    c, s = np.cos(x), np.sin(x)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def mul(profile, g, s, t) -> np.ndarray:
    """Loop product angle_of(sigma(s) @ rot(t)), sigma(s) = rot(s) @ [[1/F, g], [0, F]]."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    fh = evaluate(profile, s)
    upper = np.zeros(s.shape + (2, 2))
    upper[..., 0, 0] = 1.0 / fh
    upper[..., 0, 1] = evaluate(g, s)
    upper[..., 1, 1] = fh
    col = (_rotations(s) @ upper @ _rotations(t))[..., :, 0]
    return np.arctan2(-col[..., 1], col[..., 0]) % TWO_PI


def circular_distance(x, y) -> np.ndarray:
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


# -- exact coefficient arithmetic -------------------------------------------

def complex_coeffs(series) -> np.ndarray:
    """c_m for m = -K..K (index m + K) with series(t) = sum c_m exp(imt)."""
    a0, c, s = _arrays(series)
    k = c.size
    out = np.zeros(2 * k + 1, dtype=complex)
    out[k] = a0
    out[k + 1:] = 0.5 * (c - 1j * s)
    out[:k][::-1] = 0.5 * (c + 1j * s)
    return out


def _degree(c: np.ndarray) -> int:
    return (c.size - 1) // 2


def _pad(c: np.ndarray, k: int) -> np.ndarray:
    extra = k - _degree(c)
    return np.pad(c, (extra, extra)) if extra > 0 else c


def c_add(*terms: np.ndarray) -> np.ndarray:
    k = max(_degree(c) for c in terms)
    return sum(_pad(c, k) for c in terms)


def c_derivative(c: np.ndarray) -> np.ndarray:
    k = _degree(c)
    return 1j * np.arange(-k, k + 1) * c


def discriminant_poly(profile, g) -> np.ndarray:
    """P = F'^2 - g F' - g' F - F^2, which is F^4 times the discriminant."""
    cf, cg = complex_coeffs(profile), complex_coeffs(g)
    dcf, dcg = c_derivative(cf), c_derivative(cg)
    return c_add(
        np.convolve(dcf, dcf), -np.convolve(cg, dcf),
        -np.convolve(dcg, cf), -np.convolve(cf, cf),
    )


def grid_max(c: np.ndarray, n: int) -> float:
    """max_j P(2 pi j / n), the largest value on the uniform n-point grid (n > 2K)."""
    k = _degree(c)
    grid = np.zeros(n, dtype=complex)
    grid[np.arange(-k, k + 1) % n] = c
    return float((np.fft.ifft(grid) * n).real.max())


def max_bounds(c: np.ndarray, n: int) -> tuple[float, float]:
    """Lower and upper bounds on max_t P(t) from an n-point grid (n > 2K)."""
    m = np.arange(-_degree(c), _degree(c) + 1)
    rounding = 1e-12 * float(np.abs(c).sum())
    slope = float((np.abs(m) * np.abs(c)).sum())
    top = grid_max(c, n)
    return top - rounding, top + slope * math.pi / n + rounding


def max_below(c: np.ndarray, tau: float) -> bool | None:
    """True if max P < -tau on the whole circle, False if P > 0 somewhere, else None."""
    n = 1024
    while n <= 8 * c.size:
        n *= 2
    while n <= _MAX_GRID:
        lo, hi = max_bounds(c, n)
        if hi < -tau:
            return True
        if lo > 0.0:
            return False
        n *= 4
    return None


def _scalar_condition(value: float, margin: float) -> bool | None:
    if value > margin:
        return True
    if value < -margin:
        return False
    return None


def _residual_condition(residual: float) -> bool | None:
    if residual <= 1e-12:
        return True
    if residual >= 1e-8:
        return False
    return None


def admissible(weight, g) -> bool | None:
    """Whether (weight, g) defines a loop, decided on the whole circle.

    Conditions: the weight identity, g(0) = 0, F > 0, the weight energy
    bound, the initial slope g'(0) - F'(0)^2 + 1 > 0, and P < 0.  A
    refuted condition makes the answer False; otherwise any undecided one
    makes it None.
    """
    a0, a, b = _arrays(weight)
    k = np.arange(1, a.size + 1, dtype=float)
    g0, gc, gs = _arrays(g)
    identity = abs(a0 + float(((a + k * b) / (1 + k * k)).sum()) - 1.0)
    g_at_zero = abs(g0 + float(gc.sum()))
    verdicts = [_residual_condition(identity), _residual_condition(g_at_zero)]
    profile = profile_from_weight(weight)
    cf = complex_coeffs(profile)
    positive = max_below(-cf, HOLD_MARGIN)
    verdicts.append(positive)
    if positive is False:
        return False
    energy = 2.0 * a0 - float(((a * a + b * b) * (k * k - 1) / (k * k + 1)).sum())
    verdicts.append(_scalar_condition(energy, HOLD_MARGIN))
    _, pc, ps = profile
    kg = np.arange(1, gs.size + 1, dtype=float)
    slope = float((kg * gs).sum()) - float((k * ps).sum()) ** 2 + 1.0
    verdicts.append(_scalar_condition(slope, HOLD_MARGIN))
    f_max = max_bounds(cf, 4 * cf.size + 64)[1]
    verdicts.append(max_below(discriminant_poly(profile, g), HOLD_MARGIN * max(1.0, f_max) ** 4))
    if False in verdicts:
        return False
    return None if None in verdicts else True


def sampled_discriminant_holds(weight, g, n: int = SAMPLED_GRID) -> bool:
    """Whether P < -SAMPLED_MARGIN at the n grid points alone, not between them.

    This is the verdict of a certifier that samples the circle on that grid,
    as circleloop's does today.  For the near-boundary specs, whose other
    conditions hold with a wide margin and whose profile is F = 1, it is the
    verdict such a certifier must give.
    """
    return grid_max(discriminant_poly(profile_from_weight(weight), g), n) < -SAMPLED_MARGIN


def covers_rotation_quotient(weight, g) -> bool:
    """The quotient-cover predicate: F(pi) = 1 and g(pi) = 0."""
    profile = profile_from_weight(weight)
    return bool(abs(evaluate(profile, math.pi) - 1.0) < 1e-9 and abs(evaluate(g, math.pi)) < 1e-9)
