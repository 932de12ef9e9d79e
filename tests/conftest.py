import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from circleloop import (
    FourierSeries,
    LoopSpec,
    build_loop_spec,
    solve_a0,
    solve_g_const,
)
from circleloop.errors import InvalidGridError

TWO_PI = 2.0 * np.pi

# CLI tests start `python -m circleloop.cli` in child processes; they must
# import the same source tree as the tests themselves.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def simpson_quadrature(fn, lo: float, hi: float, n: int) -> float:
    """Composite Simpson rule with n subintervals (n even), error O(n^-4).

    The tests' independent reference rule for the closed forms of the
    package (the oracle suite integrates by Gauss–Legendre instead); `fn`
    must accept a numpy array.  An odd n, or n below 2, raises
    InvalidGridError.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidGridError(f"Simpson rule needs an even n >= 2, got {n}")
    xs = np.linspace(lo, hi, n + 1)
    ys = np.asarray(fn(xs), dtype=float)
    h = (hi - lo) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def circ_dist(x, y):
    """Shortest angular distance on the circle."""
    d = np.abs(np.asarray(x) - np.asarray(y)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


@pytest.fixture(scope="session")
def trivial_spec() -> LoopSpec:
    """The circle group itself: f == 1, g == 0."""
    return build_loop_spec(FourierSeries(1.0))


@pytest.fixture(scope="session")
def example_spec() -> LoopSpec:
    """Weight 0.9 + 0.2 cos t, no shear; profile reciprocal 0.9 + 0.1 cos t - 0.1 sin t."""
    return build_loop_spec(FourierSeries(0.9, (0.2,), (0.0,)))


@pytest.fixture(scope="session")
def shear_spec() -> LoopSpec:
    """Same weight with the admissible shear g = 0.05 sin t."""
    g = FourierSeries(solve_g_const((0.0,)), (0.0,), (0.05,))
    return build_loop_spec(FourierSeries(0.9, (0.2,), (0.0,)), g)


@pytest.fixture(scope="session")
def even_spec() -> LoopSpec:
    """Even harmonics only, so f(pi) = 1 and g(pi) = 0 by construction."""
    w = FourierSeries(solve_a0((0.0, 0.1), (0.0, 0.05)), (0.0, 0.1), (0.0, 0.05))
    g = FourierSeries(solve_g_const((0.0, 0.05)), (0.0, 0.05), (0.0, 0.02))
    return build_loop_spec(w, g)


@pytest.fixture(scope="session")
def corrupted_spec(example_spec) -> LoopSpec:
    """Example spec with the tiny shear scaled x100, bypassing validation.

    The stale verdict-true report is deliberate: this fixture exists to
    prove the property checks catch what validation would have refused.
    """
    bad_g = FourierSeries(0.0, (0.0,), (5.0,))
    return dataclasses.replace(example_spec, g=bad_g)


def random_admissible_weight(rng: np.random.Generator, max_k: int = 4) -> FourierSeries:
    """Random weight series, shrunk until comfortably admissible."""
    k = int(rng.integers(1, max_k + 1))
    cos = rng.normal(0.0, 0.25, k) / np.arange(1, k + 1) ** 2
    sin = rng.normal(0.0, 0.25, k) / np.arange(1, k + 1) ** 2
    for _ in range(60):
        w = FourierSeries(solve_a0(tuple(cos), tuple(sin)), tuple(cos), tuple(sin))
        spec = build_loop_spec(w)
        r = spec.report
        if (
            r.verdict
            and r.f_inv_min > 0.15
            and r.discriminant_max < -0.05
        ):
            return w
        cos, sin = cos * 0.6, sin * 0.6
    raise AssertionError("could not shrink weight to admissibility")


def random_admissible_spec(rng: np.random.Generator, max_k: int = 4) -> LoopSpec:
    """Random admissible spec with a nonzero shear."""
    w = random_admissible_weight(rng, max_k)
    k = int(rng.integers(1, max_k + 1))
    gcos = rng.normal(0.0, 0.05, k) / np.arange(1, k + 1) ** 2
    gsin = rng.normal(0.0, 0.05, k) / np.arange(1, k + 1) ** 2
    for _ in range(60):
        g = FourierSeries(solve_g_const(tuple(gcos)), tuple(gcos), tuple(gsin))
        spec = build_loop_spec(w, g)
        if spec.report.verdict and spec.report.discriminant_max < -0.02:
            return spec
        gcos, gsin = gcos * 0.6, gsin * 0.6
    raise AssertionError("could not shrink shear to admissibility")


def near_boundary_spec(delta: float, k: int = 64, phi: float = np.pi / 1024) -> LoopSpec:
    """F = 1 and g = eps (sin(k t + phi) - sin phi) with eps = (1 + delta)/k.

    Then Q = 1 + (1 + delta) cos(k t + phi), whose minimum over the circle
    is -delta: a loop iff delta < 0.
    """
    eps = (1.0 + delta) / k
    cos = (0.0,) * (k - 1) + (eps * np.sin(phi),)
    sin = (0.0,) * (k - 1) + (eps * np.cos(phi),)
    return build_loop_spec(FourierSeries(1.0), FourierSeries(solve_g_const(cos), cos, sin))


def dense_admissible_spec(seed: int, k: int) -> LoopSpec:
    """Seeded admissible spec with k harmonics in the profile and the shear.

    Built profile first, as the benchmark's dense specs are: F = 1 + dF with
    dF(0) = 0 and coefficients decaying like 1/j^2, scaled so |dF| <= 0.2,
    and a shear scaled so |g'| <= 0.05.  The weight's coefficients are the
    profile's times (1 - ij), so they decay only like 1/j.
    """
    rng = np.random.default_rng(seed)
    j = np.arange(1, k + 1)
    pc, ps, gc, gs = rng.normal(size=(4, k)) / j**2
    scale = 0.2 / (np.abs(2 * pc).sum() + np.abs(ps).sum())
    pc, ps = scale * pc, scale * ps
    weight = FourierSeries(1.0 - pc.sum(), pc - j * ps, ps + j * pc)
    scale = 0.05 / (j * (np.abs(gc) + np.abs(gs))).sum()
    gc, gs = scale * gc, scale * gs
    spec = build_loop_spec(weight, FourierSeries(solve_g_const(tuple(gc)), gc, gs))
    assert spec.report.verdict, spec.report.failures
    return spec
