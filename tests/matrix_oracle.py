"""Independent references for the loop: 2x2 matrix algebra, the transitivity
quadratic and the pointwise admissibility polynomial.

The package computes a product's coset angle from one coset-column
formula (`ops._coset_angle`) and decides transitivity by the
admissibility polynomial Q, one series with exact coefficients
(`FourierSeries._admissibility`) read on the build grid.  The tests check
both against the older, separate routes kept here: `_admissibility_q`
builds Q pointwise from samples of F, F', g and g'.  `coset_angle`,
`product_angle`, `ldiv_angle` and `bisection_rdiv` are the operations
composed from angles, every series read through the public
`FourierSeries.__call__` with its own sincos: the package shares one
sincos per angle instead, with the same arithmetic, so they agree bit for
bit.

Matrices are plain 2x2 numpy arrays.  The group splits (uniquely) as a
rotation times a positive-diagonal upper-triangular matrix,

    M = rot(theta) @ upper(a, b),   a > 0,

so the rotations form a system of representatives for the left cosets of
the upper-triangular subgroup; `kh_decompose` extracts that factorization
and `angle_of` the coset angle alone.  The loop product is
s * t = angle_of(section(s) @ rot(t)).

Rotation convention: rot(t) = [[cos t, sin t], [-sin t, cos t]], hence
cos(theta) = m11/a and sin(theta) = -m21/a.  The sign in the (2,1) entry
matters; flipping it silently reverses orientation.

`transitivity_quadratic` is the quadratic in w whose positivity for all w
and t is sharp transitivity, written in f = 1/f_inv; the builder decides
the same condition by Q > 0, and suite `baer` by the least eigenvalue of
a 2x2 matrix.  `translation_steps` is the dense-beta reference for that
eigenvalue: the forward steps of sampled eta_beta, read off their coset
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from circleloop.ops import _operation

TWO_PI = 2.0 * np.pi

#: allowed drift of det(M) from 1 before a matrix is rejected
TOL_DET = 1e-9


class NotUnimodularError(ValueError):
    """A matrix asserted to have unit determinant does not."""


class DegenerateColumnError(ValueError):
    """The first column of a matrix is numerically zero; no rotation factor exists."""


def normalize_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = float(t) % TWO_PI
    return t if t < TWO_PI else 0.0


@dataclass(frozen=True)
class UpperTriangular:
    """Shear [[a, b], [0, 1/a]] with positive diagonal."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"diagonal entry must be positive, got {self.a}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [0.0, 1.0 / self.a]])


def rot(t: float) -> np.ndarray:
    """Rotation [[cos t, sin t], [-sin t, cos t]]."""
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [-s, c]])


def upper(a: float, b: float) -> np.ndarray:
    """Shear matrix [[a, b], [0, 1/a]], a > 0."""
    return UpperTriangular(a, b).matrix


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product; determinants multiply, so unimodularity is preserved."""
    return x @ y


def det(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def kh_decompose(
    m: np.ndarray, *, tol_det: float = TOL_DET
) -> tuple[float, UpperTriangular]:
    """Unique split M = rot(theta) @ upper(a, b) with a > 0, theta in [0, 2*pi).

    a = hypot(m11, m21), cos(theta) = m11/a, sin(theta) = -m21/a and
    b = (m11*m12 + m21*m22)/a.  Raises NotUnimodularError when det(M)
    strays from 1 beyond tol_det and DegenerateColumnError when the first
    column vanishes (impossible for a true unimodular matrix).
    """
    d = det(m)
    if abs(d - 1.0) >= tol_det:
        raise NotUnimodularError(f"det = {d!r} is not within {tol_det} of 1")
    m11, m12 = float(m[0, 0]), float(m[0, 1])
    m21, m22 = float(m[1, 0]), float(m[1, 1])
    a = float(np.hypot(m11, m21))
    if a < 1e-12:
        raise DegenerateColumnError("first column is numerically zero")
    theta = normalize_angle(np.arctan2(-m21, m11))
    b = (m11 * m12 + m21 * m22) / a
    return theta, UpperTriangular(a, b)


def angle_of(m: np.ndarray) -> float:
    """Coset angle of M, i.e. the rotation factor of its K*H split."""
    return kh_decompose(m)[0]


@dataclass(frozen=True)
class SectionPoint:
    """Section value at one coset angle: the matrix rot(t) @ [[f, g], [0, 1/f]]."""

    t: float
    matrix: np.ndarray


def section(spec, t: float) -> SectionPoint:
    """Section matrix at angle t; the identity matrix at t in 2*pi*Z.

    Gated like every loop operation: a spec that failed validation raises
    InvalidSpecError, and a non-finite t gives a NaN matrix.
    """
    return SectionPoint(float(t), _section_matrix(spec, t))


@_operation
def _section_matrix(spec, t) -> np.ndarray:
    fh = spec.f_inv(t)
    return rot(t) @ np.array([[1.0 / fh, spec.g(t)], [0.0, fh]])


def coset_angle(p, q, r, x, y):
    """Coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y) from the angles x
    and y, each sincos taken where it is used: the coset column
    (p cos y - q sin y, r sin y) rotated by x."""
    cy, sy = np.cos(y), np.sin(y)
    radial, rs = p * cy - q * sy, r * sy
    cx, sx = np.cos(x), np.sin(x)
    return np.arctan2(radial * sx + rs * cx, radial * cx - rs * sx)


def _angle(x):
    x = x % TWO_PI
    return x if np.ndim(x) else float(x)


def product_angle(spec, s, t):
    """s * t in [0, 2*pi) from the public series evaluation: F(s) and g(s),
    then the coset angle of sigma(s) @ rot(t) at the angles s and t."""
    s = np.asarray(s, dtype=float)
    fh = spec.f_inv(s)
    return _angle(coset_angle(1.0 / fh, spec.g(s), fh, s, np.asarray(t, dtype=float)))


def ldiv_angle(spec, a, b):
    """a \\ b in [0, 2*pi): the coset angle of U(a)^-1 @ rot(b - a), from
    the public series evaluation."""
    a = np.asarray(a, dtype=float)
    fh = spec.f_inv(a)
    return _angle(coset_angle(fh, -spec.g(a), 1.0 / fh, 0.0, np.asarray(b, dtype=float) - a))


def bisection_rdiv(spec, b, a, steps: int = 51):
    """b / a by `steps` halvings of [0, 2*pi] on the lift of x -> x * a - a,
    each product by `product_angle`; no residual check."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    target = (b - a) % TWO_PI
    lo, hi = np.zeros(target.shape), np.full(target.shape, TWO_PI)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        go_right = (product_angle(spec, mid, a) - a) % TWO_PI < target
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    return _angle(0.5 * (lo + hi))


def transitivity_quadratic(spec, w, t):
    """The quadratic-in-w expression whose positivity for all w and t is
    equivalent to sharp transitivity:

        w^2 (g'f + g f' + g^2 f^2 + 1) + w (-2 f f' - 2 g f^3) + f^4.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    fh = spec.f_inv(t)
    f = 1.0 / fh
    fp = -spec.f_inv.derivative_at(t) / (fh * fh)
    g = spec.g(t)
    gp = spec.g.derivative_at(t)
    quad = (
        w * w * (gp * f + g * fp + g * g * f * f + 1.0)
        + w * (-2.0 * f * fp - 2.0 * g * f ** 3)
        + f ** 4
    )
    return quad if quad.shape else float(quad)


def _admissibility_q(fh, fhp, g, gp):
    """Q = g'F + gF' + F^2 - F'^2 and the discriminant -Q/F^4 (NaN where
    F <= 0), from samples of F = f_inv, F', g and g' at the same angles.

    Samples too large to square give an infinite or NaN Q without a
    warning; Q > 0 fails on NaN."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = gp * fh + g * fhp + fh * fh - fhp * fhp
        return q, np.where(fh > 0.0, -q / fh**4, np.nan)


def eta_derivative_expr(spec, w, t):
    """(w^2+1)/cos^2(t) times the transitivity quadratic.

    This equals d/dt tan(eta_w(t)) up to the square of the tan-quotient
    denominator, a strictly positive factor, so only its sign is
    meaningful: positive everywhere iff the spec is sharply transitive.
    Within 1e-8 of a pole of tan the unbounded 1/cos^2 factor (positive
    wherever defined) is dropped and (w^2+1) times the quadratic returned.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    quad = transitivity_quadratic(spec, w, t)
    ct = np.cos(t)
    factor = np.where(np.abs(ct) < 1e-8, 1.0, ct * ct)
    out = (w * w + 1.0) / factor * quad
    return out if out.shape else float(out)


def translation_steps(spec, betas, ts) -> np.ndarray:
    """Forward steps along ts of every eta_beta, one row per beta.

    Row i, column j is the step from ts[j] to ts[j + 1] of the lift of
    eta_{beta_i}, the coset angle of rot(t - beta) @ U(t) @ rot(beta): the
    signed angle between consecutive coset columns
    (f cos beta - g sin beta, f_inv sin beta), f = 1/f_inv, plus the
    increment of t.  A step above pi is taken 2*pi back, so every step
    lies in (-pi, pi] as an unwrapped lift reads it.  Divided by the
    increment of t, a row's steps are mean slopes of eta_beta.
    """
    betas = np.asarray(betas, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)
    fh = spec.f_inv(ts)
    c = 1.0 / fh * np.cos(betas) - spec.g(ts) * np.sin(betas)
    s = fh * np.sin(betas)
    c0, c1, s0, s1 = c[:, :-1], c[:, 1:], s[:, :-1], s[:, 1:]
    steps = np.arctan2(c0 * s1 - s0 * c1, c0 * c1 + s0 * s1) + np.diff(ts)
    steps[steps > np.pi] -= TWO_PI
    return steps
