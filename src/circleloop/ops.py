"""The loop itself: multiplication, divisions, and the conjugate-transversal
angle functions used to certify sharp transitivity.

The loop lives on coset angles in [0, 2*pi): with the clockwise rotation
rot(t) = [[cos t, sin t], [-sin t, cos t]], the coset angle of a
unimodular M is the theta of its unique split M = rot(theta) @
[[a, b], [0, 1/a]], a > 0.  With sigma(s) = rot(s) @ U(s) the section
matrix at s, U = [[f, g], [0, f_inv]], multiplication is

    s * t = the coset angle of sigma(s) @ rot(t),

which has identity 0 and, for a valid spec, strictly increasing degree-1
left and right translations.  Left division is closed form: a * y = b
says y is the coset angle of sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a),
with U^-1 = [[f_inv, -g], [0, f]].  Right division is solved by bisection
on the monotone lift of the right translation.

One formula, `_coset_column`, gives the coset column of
[[p, q], [0, r]] @ rot(y), and `_coset_angle` the coset angle of
rot(x) @ [[p, q], [0, r]] @ rot(y); multiplication and left division are
each one call of the second, and the translation scan reads the first.

For each conjugation angle beta, eta_beta(t) is the coset angle of
rot(-beta) @ sigma(t) @ rot(beta): where the section's image meets the
cosets of the conjugated stabilizer.  It is the right translation by beta
shifted by -beta, eta_beta(t) = t * beta - beta.  The section defines a
loop exactly when every eta_beta is strictly increasing with winding one;
the transversal check reads that directly from the forward steps of
`_translation_steps`, the signed angles between consecutive coset
columns, which come in blocks of `_SCAN_ROWS` translations so that a
block's arrays stay in cache.  For a valid spec `eta` is closed form:
eta_beta rises from 0 to 2*pi over each turn, so its lift at t is its
value on the turn of t plus 2*pi per whole turn.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .builder import LoopSpec
from .errors import InvalidGridError, InvalidSpecError, RootNotBracketedError
from .fourier import TWO_PI

#: residual above which a division result is rejected as unbracketed
_DIV_RESIDUAL_LIMIT = 1e-6
#: halvings of [0, 2*pi] in right division: a final bracket 2*pi/2^51 = 2.8e-15 wide
_BISECTION_STEPS = 51
#: distance from a multiple of 2*pi within which an `eta` value is that
#: multiple, far above the rounding of `_mul_unchecked`
_SNAP_TOL = 1e-12
#: largest winding error |sum of steps - 2*pi| a transversal may show
_WINDING_TOL = 1e-6
#: anchors per block of a translation scan: 8 rows of 4096 float64 steps
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


def _coset_column(p, q, r, cy, sy):
    """Coset column of [[p, q], [0, r]] @ rot(y) from (cy, sy) = (cos y, sin y):
    (p cos y - q sin y, r sin y).

    The first column of that matrix is (p cos y - q sin y, -r sin y); with
    rot clockwise, its coset angle is the polar angle of this vector.  The
    one formula behind every loop operation and the translation scan.
    """
    return p * cy - q * sy, r * sy


def _coset_angle(p, q, r, x, y):
    """Coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y), in [-pi, pi].

    The coset column of `_coset_column` rotated by x in matrix form, which
    stays smooth where a tan-quotient formula has poles.
    """
    radial, rs = _coset_column(p, q, r, np.cos(y), np.sin(y))
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


def _translation_steps(spec: LoopSpec, anchors, ts, side: str) -> Iterator[np.ndarray]:
    """Forward steps along ts of every translation by an anchor, in row blocks.

    Yields consecutive blocks of at most `_SCAN_ROWS` rows; stacked, row i,
    column j is the step from ts[j] to ts[j + 1] of the lift of
    t -> a_i * t (side "left") or of t -> t * a_i (side "right"), whose
    shift by -a_i is eta_{a_i}.  Both are the coset angle of
    rot(x) @ [[f(u), g(u)], [0, f_inv(u)]] @ rot(y), with (x, u, y) =
    (0, a, t) on the left and (t - a, t, a) on the right, so f_inv and g
    are sampled once per scan, at the anchors or at the angles; cos y and
    sin y are taken once per scan on the left and once per block on the
    right.  A step is the signed angle between consecutive coset columns
    of `_coset_column`, plus on the right the increment of x; a right step
    above pi is taken 2*pi back, so every step lies in (-pi, pi] as an
    unwrapped lift reads it.  The arithmetic of a row does not depend on
    its block.
    """
    anchors = np.asarray(anchors, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)
    u = anchors if side == "left" else ts
    fh = spec.f_inv(u)
    p, q = 1.0 / fh, spec.g(u)
    if side == "left":
        cy, sy = np.cos(ts), np.sin(ts)
    else:
        dts = np.diff(ts)
    for start in range(0, anchors.shape[0], _SCAN_ROWS):
        rows = slice(start, start + _SCAN_ROWS)
        if side == "left":
            c, s = _coset_column(p[rows], q[rows], fh[rows], cy, sy)
        else:
            y = anchors[rows]
            c, s = _coset_column(p, q, fh, np.cos(y), np.sin(y))
        c0, c1, s0, s1 = c[:, :-1], c[:, 1:], s[:, :-1], s[:, 1:]
        steps = np.arctan2(c0 * s1 - s0 * c1, c0 * c1 + s0 * s1)
        if side == "right":
            steps += dts
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


def _require_points(**sizes: int) -> None:
    """InvalidGridError naming the first scan grid size below one point."""
    for name, n in sizes.items():
        if n < 1:
            raise InvalidGridError(f"{name} must be at least 1, got {n}")


def _eta_turns(spec: LoopSpec, w, t):
    """eta_w at t as (value on the turn of t, in [0, 2*pi], whole turns of t).

    For a valid spec eta_w rises strictly from eta_w(0) = 0 to 2*pi over
    [0, 2*pi], so on the turn of t it is (tau * beta - beta) mod 2*pi with
    tau = t mod 2*pi and beta = arctan w.  A value within rounding of 0
    or 2*pi is snapped to the end of the turn that tau is nearer.
    """
    beta = np.arctan(w)
    turns, tau = np.divmod(np.asarray(t, dtype=float), TWO_PI)
    value = (_mul_unchecked(spec, tau, beta) - beta) % TWO_PI
    at_end = np.minimum(value, TWO_PI - value) < _SNAP_TOL
    return np.where(at_end, np.where(tau < np.pi, 0.0, TWO_PI), value), turns


@_operation
def eta_lift(spec: LoopSpec, w: float, ts: np.ndarray) -> np.ndarray:
    """Continuous lift of eta_w along ts, with w = tan(beta).

    Starts at eta_w(ts[0]) reduced to (-pi, pi]; for ts[0] = 0 that is
    eta_w(0) = 0.  Like every operation it needs a valid spec; a
    non-finite sample reads NaN.  Closed form at each sample, so the
    lift does not depend on how densely ts samples the turn.
    """
    value, turns = _eta_turns(spec, w, ts)
    return value + TWO_PI * (turns - turns[:1] - (value[:1] > np.pi))


@_operation
def eta(spec: LoopSpec, w: float, t: float) -> float:
    """Continuous lift of eta_w at a single angle, anchored at eta_w(0) = 0.

    eta_0(t) = t for every spec, and for the trivial spec eta_w(t) = t for
    all w.  Closed form: one loop product, whatever the size of t.
    """
    value, turns = _eta_turns(spec, w, t)
    return float(value + TWO_PI * turns)


@dataclass(frozen=True)
class TransversalReport:
    """Monotonicity and winding of eta_beta over a grid of conjugation angles."""

    passed: bool
    beta_count: int
    t_count: int
    worst_margin: float        # smallest forward step of any eta_beta
    worst_beta: float
    worst_t: float
    worst_winding_error: float  # largest |sum of the steps - 2pi|
    worst_winding_beta: float


def baer_transversal_check(
    spec: LoopSpec,
    beta_grid: int = 64,
    t_grid: int = 4096,
) -> TransversalReport:
    """Check every sampled conjugate transversal for strict monotonicity.

    For beta on a uniform grid over [0, pi) (conjugation by rot(beta) and
    rot(beta + pi) agree), the lift of eta_beta over [0, 2*pi] must be
    strictly increasing and gain exactly 2*pi.  Does not require a valid
    spec: this is the check that exposes a corrupted one.  Both grids need
    at least one point, else InvalidGridError.
    """
    _require_points(beta_grid=beta_grid, t_grid=t_grid)
    ts = np.linspace(0.0, TWO_PI, t_grid + 1)
    betas = np.linspace(0.0, np.pi, beta_grid, endpoint=False)
    step, i, j, wind, w = _worst_step(_translation_steps(spec, betas, ts, "right"))
    return TransversalReport(
        passed=step > 0.0 and wind < _WINDING_TOL,
        beta_count=beta_grid,
        t_count=t_grid,
        worst_margin=step,
        worst_beta=float(betas[i]),
        worst_t=float(ts[j]),
        worst_winding_error=wind,
        worst_winding_beta=float(betas[w]),
    )
