"""The loop itself: multiplication, divisions, and the conjugate-transversal
angle functions used to certify sharp transitivity.

The loop lives on coset angles in [0, 2*pi): with the clockwise rotation
rot(t) = [[cos t, sin t], [-sin t, cos t]], the coset angle of a
unimodular M is the theta of its unique split M = rot(theta) @
[[a, b], [0, 1/a]], a > 0.  With sigma(s) = rot(s) @ U(s) the section
matrix at s, U = [[f, g], [0, f_inv]], multiplication is

    s * t = the coset angle of sigma(s) @ rot(t).

A left translation t -> a * t is the action of the one matrix sigma(a) on
the circle of coset angles, so it is an increasing homeomorphism of degree
one for every spec: coset columns (p cos y - q sin y, r sin y) with
p r = det U(a) = 1 have cross product sin(y' - y) > 0 for y < y' < y + pi,
whatever f_inv and g are.  Left division is closed form: a * y = b says y is
the coset angle of sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a), with
U^-1 = [[f_inv, -g], [0, f]].  Right division is solved by bisection on
the monotone lift of the right translation.

`_coset_angle` gives the coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y)
from the cos and sin of x and y; multiplication and left division are
each one call of it.  Every operation takes the sincos of each angle once
and shares it: the product reads F, g and rot(s) from one sincos of s
(`FourierSeries._at`), and right division takes that of its fixed right
factor once for all its bisection steps (`_mul_at`).

For each conjugation angle beta, eta_beta(t) is the coset angle of
rot(-beta) @ sigma(t) @ rot(beta): where the section's image meets the
cosets of the conjugated stabilizer.  It is the right translation by beta
shifted by -beta, eta_beta(t) = t * beta - beta.  The section defines a
loop exactly when every eta_beta is strictly increasing; suite `baer`
decides that for every beta at once, in closed form.  For a valid spec
`eta` is closed form too: eta_beta rises from 0 to 2*pi over each turn, so
its lift at t is its value on the turn of t plus 2*pi per whole turn.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .builder import LoopSpec
from .errors import InvalidSpecError, RootNotBracketedError
from .fourier import TWO_PI, _float, _sincos

#: residual above which a division result is rejected as unbracketed
_DIV_RESIDUAL_LIMIT = 1e-6
#: halvings of [0, 2*pi] in right division: a final bracket 2*pi/2^51 = 2.8e-15 wide
_BISECTION_STEPS = 51
#: distance from a multiple of 2*pi within which an `eta` value is that
#: multiple, far above the rounding of `_mul_unchecked`
_SNAP_TOL = 1e-12


def _operation(op):
    """The one gate of every public loop operation.

    The spec must have passed validation, else InvalidSpecError.  A point
    where an argument is nan or +-inf gives NaN, without a warning: the
    operation runs with 0 there, and those points are masked after.  Finite
    float arguments skip the array test.
    """

    @functools.wraps(op)
    def checked(spec, *args):
        if not spec.report.verdict:
            names = ", ".join(f.condition for f in spec.report.failures) or "unknown"
            raise InvalidSpecError(f"spec failed validation ({names})")
        if all(isinstance(a, float) and math.isfinite(a) for a in args):
            return op(spec, *args)
        finite = functools.reduce(np.logical_and, map(np.isfinite, args))
        if finite.all():
            return op(spec, *args)
        out = np.where(finite, op(spec, *(np.where(np.isfinite(a), a, 0.0) for a in args)), np.nan)
        return _float(out)

    return checked


def _coset_angle(p, q, r, cx, sx, cy, sy):
    """Coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y), in [-pi, pi], from
    cx, sx = cos x, sin x and cy, sy = cos y, sin y.

    The first column of [[p, q], [0, r]] @ rot(y) is
    (p cos y - q sin y, -r sin y); with rot clockwise, its coset angle is
    the polar angle of the coset column (p cos y - q sin y, r sin y).  That
    column is rotated by x in matrix form, which stays smooth where a
    tan-quotient formula has poles.
    """
    radial, rs = p * cy - q * sy, r * sy
    return np.arctan2(radial * sx + rs * cx, radial * cx - rs * sx)


@_operation
def mul(spec: LoopSpec, s, t):
    """Loop product s * t as an angle in [0, 2*pi); vectorizes over arrays."""
    return _mul_unchecked(spec, s, t)


def _mul_unchecked(spec: LoopSpec, s, t):
    return _mul_at(spec, s, *_sincos(np.asarray(t, dtype=float)))


def _mul_at(spec: LoopSpec, s, ct, st):
    """s * t from ct, st = cos t, sin t; one sincos of s serves F, g and rot(s)."""
    cs, ss = _sincos(np.asarray(s, dtype=float))
    fh = spec.f_inv._at(cs, ss)
    return _float(_coset_angle(1.0 / fh, spec.g._at(cs, ss), fh, cs, ss, ct, st) % TWO_PI)


def _circular_distance(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


@_operation
def ldiv(spec: LoopSpec, a, b):
    """The unique y with a * y = b (left division a \\ b)."""
    return _ldiv_unchecked(spec, a, b)


def _ldiv_unchecked(spec: LoopSpec, a, b):
    # sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a), with U(a)^-1 = [[f_inv, -g], [0, f]];
    # the left rotation is rot(0), whose cos and sin are the constants 1 and 0
    a = np.asarray(a, dtype=float)
    ca, sa = _sincos(a)
    fh = spec.f_inv._at(ca, sa)
    cy, sy = _sincos(np.asarray(b, dtype=float) - a)
    return _float(_coset_angle(fh, -spec.g._at(ca, sa), 1.0 / fh, 1.0, 0.0, cy, sy) % TWO_PI)


@_operation
def rdiv(spec: LoopSpec, b, a):
    """The unique x with x * a = b (right division b / a)."""
    return _rdiv_unchecked(spec, b, a)


def _rdiv_unchecked(spec: LoopSpec, b, a):
    """Bisection on [0, 2*pi] for (x * a - a) mod 2*pi = (b - a) mod 2*pi.

    For a valid spec the left side rises strictly from 0 to 2*pi as x runs
    over [0, 2*pi), so plain bisection converges; the residual check, which
    fails on NaN, catches a spec whose right translation is not monotone.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ca, sa = _sincos(a)
    target = (b - a) % TWO_PI
    lo = np.zeros(target.shape)
    hi = np.full(target.shape, TWO_PI)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        go_right = (_mul_at(spec, mid, ca, sa) - a) % TWO_PI < target
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    x = (0.5 * (lo + hi)) % TWO_PI
    residual = _circular_distance(_mul_at(spec, x, ca, sa), b)
    if not np.all(residual <= _DIV_RESIDUAL_LIMIT):
        worst = float(np.max(residual))
        raise RootNotBracketedError(
            f"right division residual {worst:.3e}; the right translation is not "
            "a monotone circle map (inadmissible spec?)"
        )
    return _float(x)


@_operation
def eta(spec: LoopSpec, w, t):
    """Continuous lift of eta_w at t, anchored at eta_w(0) = 0, with w = tan(beta).

    t may be an array.  For a valid spec eta_w rises strictly from
    eta_w(0) = 0 to 2*pi over [0, 2*pi], so on the turn of t it is
    (tau * beta - beta) mod 2*pi with tau = t mod 2*pi, and the lift adds
    2*pi per whole turn of t.  A value within rounding of 0 or 2*pi is
    snapped to the end of the turn that tau is nearer.  Closed form: one
    loop product per angle, whatever the size of t, so the lift does not
    depend on how densely an array samples the turn.  eta_0(t) = t for
    every spec, and for the trivial spec eta_w(t) = t for all w.
    """
    beta = np.arctan(w)
    turns, tau = np.divmod(np.asarray(t, dtype=float), TWO_PI)
    value = (_mul_unchecked(spec, tau, beta) - beta) % TWO_PI
    at_end = np.minimum(value, TWO_PI - value) < _SNAP_TOL
    lift = np.where(at_end, np.where(tau < np.pi, 0.0, TWO_PI), value) + TWO_PI * turns
    return _float(lift)
