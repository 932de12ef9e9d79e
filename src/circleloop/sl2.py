"""2x2 unimodular matrix algebra: rotations, shears, and the K*H split.

Matrices are plain 2x2 numpy arrays.  The group splits (uniquely) as a
rotation times a positive-diagonal upper-triangular matrix,

    M = rot(theta) @ upper(a, b),   a > 0,

so the rotations form a system of representatives for the left cosets of
the upper-triangular subgroup; `kh_decompose` extracts that factorization
and `angle_of` the coset angle alone.

Rotation convention: rot(t) = [[cos t, sin t], [-sin t, cos t]], hence
cos(theta) = m11/a and sin(theta) = -m21/a.  The sign in the (2,1) entry
matters; flipping it silently reverses orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, NotUnimodularError

TWO_PI = 2.0 * np.pi

#: allowed drift of det(M) from 1 before a matrix is rejected
TOL_DET = 1e-9


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


def angle_of(m: np.ndarray, *, tol_det: float = TOL_DET) -> float:
    """Coset angle of M, i.e. the rotation factor of its K*H split."""
    return kh_decompose(m, tol_det=tol_det)[0]
