"""The loop itself: section evaluation, multiplication, divisions, and
the conjugate-transversal angle functions used to certify sharp transitivity.

The loop lives on coset angles in [0, 2*pi).  With sigma(s) =
rot(s) @ U(s) the section matrix at s, U = [[f, g], [0, f_inv]],
multiplication is

    s * t = angle_of( sigma(s) @ rot(t) ),

which has identity 0 and, for a valid spec, strictly increasing degree-1
left and right translations.  Left division is closed form: a * y = b
says y is the coset angle of sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a),
with U^-1 = [[f_inv, -g], [0, f]].  Right division is solved by bisection
on the monotone lift of the right translation.

One kernel, `_coset_angle`, gives the coset angle of
rot(x) @ [[p, q], [0, r]] @ rot(y); multiplication, left division and
the left and right translation lifts below are each one call of it.

For each conjugation angle beta, eta_beta(t) is the coset angle of
rot(-beta) @ sigma(t) @ rot(beta): where the section's image meets the
cosets of the conjugated stabilizer.  It is the right translation by beta
shifted by -beta, eta_beta(t) = t * beta - beta.  The section defines a
loop exactly when every eta_beta is strictly increasing with winding one;
the transversal check samples that directly on the lifts of
`_translation_lifts`, and `transitivity_quadratic` evaluates the
equivalent quadratic-in-w positivity condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import LoopSpec
from .errors import InvalidSpecError, RootNotBracketedError
from .fourier import TWO_PI
from .sl2 import rot

#: residual above which a division result is rejected as unbracketed
_DIV_RESIDUAL_LIMIT = 1e-6


@dataclass(frozen=True)
class SectionPoint:
    """Section value at one coset angle: the matrix rot(t) @ [[f, g], [0, 1/f]]."""

    t: float
    matrix: np.ndarray


def _require_valid(spec: LoopSpec) -> None:
    if not spec.report.verdict:
        names = ", ".join(f.condition for f in spec.report.failures) or "unknown"
        raise InvalidSpecError(f"spec failed validation ({names})")


def _coset_angle(p, q, r, x, y):
    """Coset angle of rot(x) @ [[p, q], [0, r]] @ rot(y), in [-pi, pi].

    The one formula behind every loop operation and translation lift: the
    first column of [[p, q], [0, r]] @ rot(y) is (p cos y - q sin y,
    -r sin y), rotated by x in matrix form, which stays smooth where a
    tan-quotient formula has poles.
    """
    cy, sy = np.cos(y), np.sin(y)
    radial, rs = p * cy - q * sy, r * sy
    cx, sx = np.cos(x), np.sin(x)
    return np.arctan2(radial * sx + rs * cx, radial * cx - rs * sx)


def section(spec: LoopSpec, t: float) -> SectionPoint:
    """Section matrix at angle t; the identity matrix at t in 2*pi*Z."""
    _require_valid(spec)
    t = float(t)
    fh = spec.f_inv(t)
    return SectionPoint(t, rot(t) @ np.array([[1.0 / fh, spec.g(t)], [0.0, fh]]))


def mul(spec: LoopSpec, s, t):
    """Loop product s * t as an angle in [0, 2*pi); vectorizes over arrays."""
    _require_valid(spec)
    return _mul_unchecked(spec, s, t)


def _mul_unchecked(spec: LoopSpec, s, t):
    s = np.asarray(s, dtype=float)
    fh = spec.f_inv(s)
    ang = _coset_angle(1.0 / fh, spec.g(s), fh, s, np.asarray(t, dtype=float)) % TWO_PI
    return ang if ang.shape else float(ang)


def _circular_distance(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def ldiv(spec: LoopSpec, a, b):
    """The unique y with a * y = b (left division a \\ b)."""
    _require_valid(spec)
    return _ldiv_unchecked(spec, a, b)


def _ldiv_unchecked(spec: LoopSpec, a, b):
    # sigma(a)^-1 @ rot(b) = U(a)^-1 @ rot(b - a), with U(a)^-1 = [[f_inv, -g], [0, f]]
    a = np.asarray(a, dtype=float)
    fh = spec.f_inv(a)
    y = _coset_angle(fh, -spec.g(a), 1.0 / fh, 0.0, np.asarray(b, dtype=float) - a) % TWO_PI
    return y if y.shape else float(y)


def rdiv(spec: LoopSpec, b, a):
    """The unique x with x * a = b (right division b / a)."""
    _require_valid(spec)
    return _rdiv_unchecked(spec, b, a)


def _rdiv_unchecked(spec: LoopSpec, b, a):
    """Bisection on [0, 2*pi] for (x * a - a) mod 2*pi = (b - a) mod 2*pi.

    For a valid spec the left side rises strictly from 0 to 2*pi as x runs
    over [0, 2*pi), so plain bisection converges; the residual check, which
    fails on NaN, catches a spec whose right translation is not monotone.
    A point where a or b is not finite has no solution and gives NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    finite = np.isfinite(a) & np.isfinite(b)
    a, b = (np.where(np.isfinite(v), v, 0.0) for v in (a, b))
    target = (b - a) % TWO_PI
    lo = np.zeros(target.shape)
    hi = np.full(target.shape, TWO_PI)
    # halvings to shrink [0, 2*pi] below tol_root, plus guard bits
    steps = int(np.ceil(np.log2(TWO_PI / spec.report.tolerances.tol_root))) + 8
    for _ in range(min(90, max(20, steps))):
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
    x = np.where(finite, x, np.nan)
    return x if x.shape else float(x)


def _translation_lifts(spec: LoopSpec, anchors, ts, side: str) -> np.ndarray:
    """Lifts along ts of every translation by an anchor, shifted by the anchor.

    Row i is the lift of t -> a_i * t - a_i (side "left") or of
    t -> t * a_i - a_i = eta_{a_i}(t) (side "right"), unwrapped along ts
    and starting from the value at ts[0].  Both are the coset angle of
    rot(x) @ [[f(u), g(u)], [0, f_inv(u)]] @ rot(y), with (x, u, y) =
    (0, a, t) on the left and (t - a, t, a) on the right, so f_inv and g
    are sampled once per anchor or once per angle.  The shift leaves every
    step and the winding of the translation unchanged.
    """
    anchors = np.asarray(anchors, dtype=float)[:, None]
    ts = np.asarray(ts, dtype=float)
    if side == "left":
        u, x, y = anchors, 0.0, ts
    else:
        u, x, y = ts, ts - anchors, anchors
    fh = spec.f_inv(u)
    return np.unwrap(_coset_angle(1.0 / fh, spec.g(u), fh, x, y), axis=-1)


def _worst_step(lifts: np.ndarray) -> tuple[float, int, int, float, int]:
    """Scan a stack of lifts for monotonicity and unit winding.

    Returns the smallest forward step of any row with its (row, column),
    then the largest winding error |lift[-1] - lift[0] - 2*pi| with its
    row; ties go to the first row and column.
    """
    steps = np.diff(lifts, axis=-1)
    row, col = np.unravel_index(int(steps.argmin()), steps.shape)
    winding = np.abs(lifts[:, -1] - lifts[:, 0] - TWO_PI)
    w = int(winding.argmax())
    return float(steps[row, col]), int(row), int(col), float(winding[w]), w


def eta_lift(spec: LoopSpec, w: float, ts: np.ndarray) -> np.ndarray:
    """Continuous lift of eta_w along ts, with w = tan(beta).

    Starts at eta_w(ts[0]) reduced to (-pi, pi]; for a valid spec and
    ts[0] = 0 that is eta_w(0) = 0.
    """
    return _translation_lifts(spec, [np.arctan(w)], ts, "right")[0]


def eta(spec: LoopSpec, w: float, t: float, *, resolution: int = 2048) -> float:
    """Continuous lift of eta_w at a single angle, anchored at eta_w(0) = 0.

    eta_0(t) = t for every spec, and for the trivial spec eta_w(t) = t for
    all w.  Tracked from 0 to t along `resolution` intermediate angles.
    """
    _require_valid(spec)
    n = max(64, int(np.ceil(abs(t) / TWO_PI * resolution)))
    ts = np.linspace(0.0, float(t), n + 1)
    return float(eta_lift(spec, w, ts)[-1])


def transitivity_quadratic(spec: LoopSpec, w, t):
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


def eta_derivative_expr(spec: LoopSpec, w, t):
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


@dataclass(frozen=True)
class TransversalReport:
    """Monotonicity and winding of eta_beta over a grid of conjugation angles."""

    passed: bool
    beta_count: int
    t_count: int
    worst_margin: float        # smallest forward difference of any lift
    worst_beta: float
    worst_t: float
    worst_winding_error: float  # largest |lift(2pi) - lift(0) - 2pi|
    worst_winding_beta: float


def baer_transversal_check(
    spec: LoopSpec,
    beta_grid: int = 64,
    t_grid: int = 4096,
    *,
    winding_tol: float = 1e-6,
) -> TransversalReport:
    """Check every sampled conjugate transversal for strict monotonicity.

    For beta on a uniform grid over [0, pi) (conjugation by rot(beta) and
    rot(beta + pi) agree), the lift of eta_beta over [0, 2*pi] must be
    strictly increasing and gain exactly 2*pi.  Does not require a valid
    spec: this is the check that exposes a corrupted one.
    """
    ts = np.linspace(0.0, TWO_PI, t_grid + 1)
    betas = np.linspace(0.0, np.pi, beta_grid, endpoint=False)
    step, i, j, wind, w = _worst_step(_translation_lifts(spec, betas, ts, "right"))
    return TransversalReport(
        passed=step > 0.0 and wind < winding_tol,
        beta_count=beta_grid,
        t_count=t_grid,
        worst_margin=step,
        worst_beta=float(betas[i]),
        worst_t=float(ts[j]),
        worst_winding_error=wind,
        worst_winding_beta=float(betas[w]),
    )
