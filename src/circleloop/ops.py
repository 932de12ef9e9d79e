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

One formula, `_coset_column`, gives the coset column of
[[p, q], [0, r]] @ rot(y), and `_coset_angle` the coset angle of
rot(x) @ [[p, q], [0, r]] @ rot(y); multiplication and left division are
each one call of the second, and the transversal scan reads the first.

Whether a spec is a loop depends only on its right translations.  For
each conjugation angle beta, eta_beta(t) is the coset angle of
rot(-beta) @ sigma(t) @ rot(beta): where the section's image meets the
cosets of the conjugated stabilizer.  It is the right translation by beta
shifted by -beta, eta_beta(t) = t * beta - beta.  The section defines a
loop exactly when every eta_beta is strictly increasing with winding one.
`_translation_steps` is the one scan of them: it yields the forward steps
of eta_beta, the signed angles between consecutive coset columns, in
blocks of `_SCAN_ROWS` transversals so that a block's arrays stay in
cache.  For a valid spec `eta` is closed form: eta_beta rises from 0 to
2*pi over each turn, so its lift at t is its value on the turn of t plus
2*pi per whole turn.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

import numpy as np

from .builder import LoopSpec
from .errors import InvalidSpecError, RootNotBracketedError
from .fourier import TWO_PI

#: residual above which a division result is rejected as unbracketed
_DIV_RESIDUAL_LIMIT = 1e-6
#: halvings of [0, 2*pi] in right division: a final bracket 2*pi/2^51 = 2.8e-15 wide
_BISECTION_STEPS = 51
#: distance from a multiple of 2*pi within which an `eta` value is that
#: multiple, far above the rounding of `_mul_unchecked`
_SNAP_TOL = 1e-12
#: transversals per block of the eta scan: 8 rows of 4096 float64 steps
#: are 256 KB, so a block's temporaries stay in a core's L2 cache
_SCAN_ROWS = 8


def _operation(op):
    """The one gate of every public loop operation.

    The spec must have passed validation, else InvalidSpecError.  A point
    where an argument is nan or +-inf gives NaN, without a warning: the
    operation runs with 0 there, and those points are masked after.
    """

    @functools.wraps(op)
    def checked(spec, *args):
        if not spec.report.verdict:
            names = ", ".join(f.condition for f in spec.report.failures) or "unknown"
            raise InvalidSpecError(f"spec failed validation ({names})")
        finite = functools.reduce(np.logical_and, map(np.isfinite, args))
        if finite.all():
            return op(spec, *args)
        out = np.where(finite, op(spec, *(np.where(np.isfinite(a), a, 0.0) for a in args)), np.nan)
        return out if out.shape else float(out)

    return checked


def _coset_column(p, q, r, y):
    """Coset column of [[p, q], [0, r]] @ rot(y): (p cos y - q sin y, r sin y).

    The first column of that matrix is (p cos y - q sin y, -r sin y); with
    rot clockwise, its coset angle is the polar angle of this vector.  The
    one formula behind every loop operation and the transversal scan.
    """
    cy, sy = np.cos(y), np.sin(y)
    return p * cy - q * sy, r * sy


def _coset_angle(p, q, r, x, y):
    """Coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y), in [-pi, pi].

    The coset column of `_coset_column` rotated by x in matrix form, which
    stays smooth where a tan-quotient formula has poles.
    """
    radial, rs = _coset_column(p, q, r, y)
    cx, sx = np.cos(x), np.sin(x)
    return np.arctan2(radial * sx + rs * cx, radial * cx - rs * sx)


@_operation
def mul(spec: LoopSpec, s, t):
    """Loop product s * t as an angle in [0, 2*pi); vectorizes over arrays."""
    return _mul_unchecked(spec, s, t)


def _mul_unchecked(spec: LoopSpec, s, t):
    s = np.asarray(s, dtype=float)
    fh = spec.f_inv(s)
    ang = _coset_angle(1.0 / fh, spec.g(s), fh, s, np.asarray(t, dtype=float)) % TWO_PI
    return ang if ang.shape else float(ang)


def _circular_distance(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


@_operation
def ldiv(spec: LoopSpec, a, b):
    """The unique y with a * y = b (left division a \\ b)."""
    return _ldiv_unchecked(spec, a, b)


def _ldiv_unchecked(spec: LoopSpec, a, b):
    # sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a), with U(a)^-1 = [[f_inv, -g], [0, f]]
    a = np.asarray(a, dtype=float)
    fh = spec.f_inv(a)
    y = _coset_angle(fh, -spec.g(a), 1.0 / fh, 0.0, np.asarray(b, dtype=float) - a) % TWO_PI
    return y if y.shape else float(y)


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
    target = (b - a) % TWO_PI
    lo = np.zeros(target.shape)
    hi = np.full(target.shape, TWO_PI)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        go_right = (_mul_unchecked(spec, mid, a) - a) % TWO_PI < target
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    x = (0.5 * (lo + hi)) % TWO_PI
    residual = _circular_distance(_mul_unchecked(spec, x, a), b)
    if not np.all(residual <= _DIV_RESIDUAL_LIMIT):
        worst = float(np.max(residual))
        raise RootNotBracketedError(
            f"right division residual {worst:.3e}; the right translation is not "
            "a monotone circle map (inadmissible spec?)"
        )
    return x if x.shape else float(x)


def _translation_steps(spec: LoopSpec, betas, ts) -> Iterator[np.ndarray]:
    """Forward steps along ts of every eta_beta, in row blocks.

    Yields consecutive blocks of at most `_SCAN_ROWS` rows; stacked, row i,
    column j is the step from ts[j] to ts[j + 1] of the lift of
    eta_{beta_i}, the coset angle of rot(t - beta) @ U(t) @ rot(beta), so
    f_inv and g are sampled once per scan, at ts, and cos beta and sin beta
    once per block.  A step is the signed angle between consecutive coset
    columns of `_coset_column` plus the increment of t; a step above pi is
    taken 2*pi back, so every step lies in (-pi, pi] as an unwrapped lift
    reads it.  The arithmetic of a row does not depend on its block.
    """
    betas = np.asarray(betas, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)
    fh = spec.f_inv(ts)
    p, q = 1.0 / fh, spec.g(ts)
    dts = np.diff(ts)
    for start in range(0, betas.shape[0], _SCAN_ROWS):
        c, s = _coset_column(p, q, fh, betas[start : start + _SCAN_ROWS])
        c0, c1, s0, s1 = c[:, :-1], c[:, 1:], s[:, :-1], s[:, 1:]
        steps = np.arctan2(c0 * s1 - s0 * c1, c0 * c1 + s0 * s1) + dts
        steps[steps > np.pi] -= TWO_PI
        yield steps


def _worst_step(blocks: Iterable[np.ndarray]) -> tuple[float, int, int, float, int]:
    """Scan row blocks of forward steps for monotonicity and unit winding.

    Returns the smallest step of any row with its (row, column), then the
    largest winding error |sum of the row's steps - 2*pi| with its row,
    rows counted across the blocks in order; ties and NaN go to the first
    row and column, as one `argmin` and `argmax` over the stacked rows.
    """
    lows, spots, windings, first = [], [], [], 0
    for steps in blocks:
        row, col = np.unravel_index(int(steps.argmin()), steps.shape)
        lows.append(steps[row, col])
        spots.append((first + int(row), int(col)))
        windings.append(np.abs(steps.sum(axis=-1) - TWO_PI))
        first += steps.shape[0]
    k = int(np.argmin(lows))
    winding = np.concatenate(windings)
    w = int(winding.argmax())
    return float(lows[k]), *spots[k], float(winding[w]), w


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
    return lift if lift.shape else float(lift)
