import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from circleloop import FourierSeries, check_weight, simpson_quadrature, solve_a0
from circleloop.errors import InvalidGridError

TWO_PI = 2.0 * np.pi


def brute_eval(s: FourierSeries, t: float) -> float:
    """Independent evaluation oracle: plain math summation, no numpy."""
    total = s.a0
    for k in range(1, s.harmonics + 1):
        total += s.cos[k - 1] * math.cos(k * t) + s.sin[k - 1] * math.sin(k * t)
    return total


def explicit_sums(s: FourierSeries, t, kt):
    """Value, derivative, int_0^t and int_0^t e^-u of s at t, summed harmonic by harmonic.

    kt[k-1, p] is the angle k t_p, passed in so that the caller can form it
    exactly; the closed forms per harmonic are the textbook antiderivatives.
    """
    k = np.arange(1, s.harmonics + 1)[:, None]
    a, b = np.array(s.cos)[:, None], np.array(s.sin)[:, None]
    cos, sin, e = np.cos(kt), np.sin(kt), np.exp(-t)
    value = s.a0 + (a * cos + b * sin).sum(axis=0)
    slope = (k * (b * cos - a * sin)).sum(axis=0)
    integral = s.a0 * t + ((a * sin + b * (1.0 - cos)) / k).sum(axis=0)
    weighted = s.a0 * (1.0 - e) + (
        (a * (1.0 + k * sin * e - cos * e) + b * (k - k * cos * e - sin * e)) / (1 + k * k)
    ).sum(axis=0)
    return value, slope, integral, weighted


def random_series(k: int, seed: int) -> FourierSeries:
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=2 * k + 1)
    return FourierSeries(x[0], x[1 : k + 1], x[k + 1 :])


def coefficient_sizes(s: FourierSeries) -> tuple[float, float]:
    """sum |coefficients| and sum k (|cos_k| + |sin_k|), the scales of value and slope."""
    k = np.arange(1, s.harmonics + 1)
    ab = np.abs(s.cos) + np.abs(s.sin)
    return abs(s.a0) + float(ab.sum()), float((k * ab).sum())


DEGREES = st.sampled_from([0, 1, 2, 8, 64, 256])
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestEvaluatorPaths:
    """Both evaluator paths against explicit sums, to 1e-13 of the coefficient scale."""

    @PROPERTY
    @given(k=DEGREES, seed=SEEDS, ticks=st.lists(st.integers(-2048, 3072), min_size=1, max_size=12))
    def test_points_match_explicit_sums(self, k, seed, ticks):
        s = random_series(k, seed)
        # t = m/512 has at most 12 significant bits, so k*t is exact for k <= 256
        t = np.array(ticks) / 512.0
        value, slope, integral, weighted = explicit_sums(s, t, np.arange(1, k + 1)[:, None] * t)
        size, k_size = coefficient_sizes(s)
        assert np.all(np.abs(s(t) - value) <= 1e-13 * size)
        assert np.all(np.abs(s.derivative_at(t) - slope) <= 1e-13 * k_size)
        err = np.abs(s.integral_from_zero(t) - integral)
        assert np.all(err <= 1e-13 * size * np.maximum(1.0, np.abs(t)))
        err = np.abs(s.exp_weighted_integral(t) - weighted)
        assert np.all(err <= 1e-13 * size * np.maximum(1.0, np.exp(-t)))

    @PROPERTY
    @given(k=DEGREES, seed=SEEDS, extra=st.integers(1, 64))
    def test_grid_matches_explicit_sums(self, k, seed, extra):
        s = random_series(k, seed)
        n = 2 * k + extra  # the smallest grids that do not alias K harmonics
        j = np.arange(n)
        # k t_j reduced exactly: 2 pi ((k j) mod n) / n
        kt = TWO_PI * (np.outer(np.arange(1, k + 1), j) % n) / n
        value, slope, _, _ = explicit_sums(s, j * (TWO_PI / n), kt)
        size, k_size = coefficient_sizes(s)
        assert np.all(np.abs(s._on_grid(n) - value) <= 1e-13 * size)
        assert np.all(np.abs(s.derivative()._on_grid(n) - slope) <= 1e-13 * k_size)

    @PROPERTY
    @given(k=DEGREES, seed=SEEDS, rows=st.integers(1, 4), cols=st.integers(1, 5))
    def test_shapes_and_exact_zeros(self, k, seed, rows, cols):
        s = random_series(k, seed)
        methods = (s, s.derivative_at, s.integral_from_zero, s.exp_weighted_integral)
        for method in methods:
            assert type(method(0.7)) is float
            assert type(method(np.float64(0.7))) is float
            assert method(np.full((rows, cols), 0.7)).shape == (rows, cols)
        assert s.integral_from_zero(0.0) == 0.0
        assert s.exp_weighted_integral(0.0) == 0.0
        assert np.all(s.integral_from_zero(np.zeros((rows, cols))) == 0.0)
        assert np.all(s.exp_weighted_integral(np.zeros((rows, cols))) == 0.0)

    @PROPERTY
    @given(k=DEGREES, short=st.integers(0, 512))
    def test_grid_refuses_aliasing(self, k, short):
        s = random_series(k, 0)
        n = 2 * k - min(short, 2 * k)  # K >= n/2
        with pytest.raises(InvalidGridError):
            s._on_grid(n)


class TestEvaluation:
    def test_constant(self):
        assert FourierSeries(1.0)(0.7) == 1.0

    def test_pure_cosine_at_zero(self):
        assert FourierSeries(0.0, (1.0,), (0.0,))(0.0) == 1.0

    def test_example_at_pi(self):
        s = FourierSeries(0.9, (0.2,), (0.0,))
        assert s(np.pi) == pytest.approx(0.7, abs=1e-15)
        assert s(np.pi) == pytest.approx(brute_eval(s, np.pi), abs=1e-15)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(0, 6))
            s = FourierSeries(rng.normal(), tuple(rng.normal(size=k)), tuple(rng.normal(size=k)))
            for t in rng.uniform(-10, 10, 5):
                assert s(t) == pytest.approx(brute_eval(s, t), abs=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(11)
        s = FourierSeries(rng.normal(), tuple(rng.normal(size=4)), tuple(rng.normal(size=4)))
        ts = rng.uniform(0, TWO_PI, 50)
        assert np.max(np.abs(s(ts) - s(ts + TWO_PI))) < 1e-12

    def test_array_evaluation(self):
        s = FourierSeries(0.5, (0.1,), (0.2,))
        ts = np.linspace(0, TWO_PI, 7)
        assert np.allclose(s(ts), [s(float(t)) for t in ts])

    def test_mismatched_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FourierSeries(1.0, (0.1,), ())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FourierSeries(float("nan"))


class TestDerivative:
    def test_constant_is_flat(self):
        assert FourierSeries(1.0).derivative_at(0.3) == 0.0

    def test_sine_slope_at_zero(self):
        assert FourierSeries(0.0, (0.0,), (1.0,)).derivative_at(0.0) == 1.0

    def test_example_at_half_pi(self):
        s = FourierSeries(0.9, (0.2,), (0.0,))
        val = s.derivative_at(np.pi / 2)
        assert val == pytest.approx(-0.2, abs=1e-15)
        h = 1e-6
        fd = (s(np.pi / 2 + h) - s(np.pi / 2 - h)) / (2 * h)
        assert val == pytest.approx(fd, abs=1e-9)

    def test_finite_difference_order(self):
        rng = np.random.default_rng(3)
        s = FourierSeries(rng.normal(), tuple(rng.normal(size=4)), tuple(rng.normal(size=4)))
        # central difference error is bounded by M3 h^2 / 6
        m3 = sum(k**3 * (abs(a) + abs(b)) for k, (a, b) in enumerate(zip(s.cos, s.sin), 1))
        for h in (1e-4, 1e-5):
            for t in rng.uniform(0, TWO_PI, 10):
                fd = (s(t + h) - s(t - h)) / (2 * h)
                assert abs(fd - s.derivative_at(t)) <= m3 * h * h / 6 + 1e-10

    def test_derivative_series_matches_pointwise(self):
        rng = np.random.default_rng(5)
        s = FourierSeries(rng.normal(), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
        ts = rng.uniform(0, TWO_PI, 20)
        assert np.allclose(s.derivative()(ts), s.derivative_at(ts), atol=1e-14)

    def test_derivative_series_built_once(self):
        s = FourierSeries(0.9, (0.2, 0.1), (0.0, 0.3))
        assert s.derivative() is s.derivative()


class TestExpWeightedIntegral:
    def test_constant_full_period(self):
        got = FourierSeries(1.0).exp_weighted_integral(TWO_PI)
        assert got == pytest.approx(1.0 - math.exp(-TWO_PI), abs=1e-15)

    def test_zero_length(self):
        s = FourierSeries(0.3, (0.2,), (-0.1,))
        assert s.exp_weighted_integral(0.0) == 0.0

    def test_pure_sine_full_period(self):
        # int_0^{2pi} sin(u) e^-u du = (1 - e^{-2pi})/2
        got = FourierSeries(0.0, (0.0,), (1.0,)).exp_weighted_integral(TWO_PI)
        expected = 0.5 * (1.0 - math.exp(-TWO_PI))
        assert got == pytest.approx(expected, abs=1e-14)
        adaptive, _ = quad(lambda u: math.sin(u) * math.exp(-u), 0.0, TWO_PI)
        assert got == pytest.approx(adaptive, abs=1e-12)

    def test_against_quadrature_oracle_admissible_scale(self):
        from conftest import random_admissible_weight

        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_admissible_weight(rng)
            for t in rng.uniform(0.1, TWO_PI, 4):
                oracle = simpson_quadrature(lambda u: s(u) * np.exp(-u), 0.0, float(t), 512)
                assert s.exp_weighted_integral(float(t)) == pytest.approx(oracle, abs=1e-8)

    def test_against_quadrature_oracle_wild_series(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            k = int(rng.integers(0, 5))
            s = FourierSeries(rng.normal(), tuple(rng.normal(size=k)), tuple(rng.normal(size=k)))
            for t in rng.uniform(0.1, TWO_PI, 4):
                oracle = simpson_quadrature(lambda u: s(u) * np.exp(-u), 0.0, float(t), 4096)
                assert s.exp_weighted_integral(float(t)) == pytest.approx(oracle, abs=1e-8)


class TestSeriesAlgebra:
    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(17)
        p = FourierSeries(rng.normal(), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
        q = FourierSeries(rng.normal(), tuple(rng.normal(size=2)), tuple(rng.normal(size=2)))
        prod = p * q
        assert prod.harmonics == 5
        ts = rng.uniform(0, TWO_PI, 40)
        assert np.allclose(prod(ts), p(ts) * q(ts), atol=1e-12)

    def test_integral_from_zero_matches_quadrature(self):
        rng = np.random.default_rng(19)
        s = FourierSeries(rng.normal(), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
        for t in (0.5, 2.0, TWO_PI):
            oracle = simpson_quadrature(s, 0.0, t, 512)
            assert s.integral_from_zero(t) == pytest.approx(oracle, abs=1e-9)

    def test_add_sub_reflect_negate(self):
        p = FourierSeries(1.0, (0.5,), (0.25,))
        q = FourierSeries(0.5, (0.1, 0.2), (0.0, -0.3))
        ts = np.linspace(0, TWO_PI, 11)
        assert np.allclose((p + q)(ts), p(ts) + q(ts))
        assert np.allclose((p - q)(ts), p(ts) - q(ts))
        assert np.allclose(p.reflected()(ts), p(-ts))
        assert np.allclose((-p)(ts), -(p(ts)))


class TestWeightAdmissibility:
    def test_trivial_weight(self):
        rep = check_weight(FourierSeries(1.0), 64)
        assert rep.verdict
        assert rep.identity_residual == 0.0
        assert rep.positivity_margin == pytest.approx(1.0)
        assert rep.energy_slack == pytest.approx(2.0)

    def test_example_weight(self):
        rep = check_weight(FourierSeries(0.9, (0.2,), (0.0,)), 4096)
        assert rep.verdict
        assert rep.identity_residual < 1e-15  # 0.9 + 0.2/2 = 1 exactly
        # amplitude of 0.1 sin t - 0.1 cos t is 0.1*sqrt(2)
        assert rep.positivity_margin == pytest.approx(0.9 - 0.1 * math.sqrt(2), abs=1e-6)
        assert rep.energy_slack == pytest.approx(1.62)  # 2 a0^2; the k=1 term vanishes

    def test_example_margin_against_dense_minimization(self):
        rep = check_weight(FourierSeries(0.9, (0.2,), (0.0,)), 4096)
        ts = np.linspace(0, TWO_PI, 2_000_001)
        dense = np.min(0.9 + 0.1 * np.cos(ts) - 0.1 * np.sin(ts))
        assert rep.positivity_margin == pytest.approx(dense, abs=1e-7)

    def test_identity_violation(self):
        rep = check_weight(FourierSeries(0.5), 64)
        assert not rep.verdict
        assert rep.identity_residual == pytest.approx(0.5)

    def test_energy_violation(self):
        # large k=2 coefficients break the energy bound
        cos, sin = (0.0, 2.0), (0.0, 0.0)
        rep = check_weight(FourierSeries(solve_a0(cos, sin), cos, sin), 4096)
        assert rep.energy_slack < 0
        assert not rep.verdict

    def test_grid_too_coarse(self):
        s = FourierSeries(1.0, (0.0,) * 4, (0.0,) * 4)
        with pytest.raises(InvalidGridError):
            check_weight(s, 31)

    def test_determinism(self):
        s = FourierSeries(0.9, (0.2,), (0.0,))
        assert check_weight(s, 512) == check_weight(s, 512)

    def test_solve_a0_makes_identity_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            cos = tuple(rng.normal(size=k))
            sin = tuple(rng.normal(size=k))
            s = FourierSeries(solve_a0(cos, sin), cos, sin)
            rep = check_weight(s, 4 * k + 16)
            assert rep.identity_residual < 1e-14


class TestSimpsonOracle:
    def test_constant(self):
        assert simpson_quadrature(lambda x: np.ones_like(x), 0, TWO_PI, 128) == pytest.approx(
            TWO_PI, abs=1e-12
        )

    def test_sine_half_period(self):
        # composite-rule error bound is (b-a) h^4 max|f''''| / 180
        assert simpson_quadrature(np.sin, 0, np.pi, 128) == pytest.approx(2.0, abs=1e-8)
        assert simpson_quadrature(np.sin, 0, np.pi, 512) == pytest.approx(2.0, abs=1e-10)

    def test_exponential(self):
        exact = 1.0 - math.exp(-TWO_PI)
        assert simpson_quadrature(lambda u: np.exp(-u), 0, TWO_PI, 256) == pytest.approx(
            exact, abs=2e-8
        )
        assert simpson_quadrature(lambda u: np.exp(-u), 0, TWO_PI, 1024) == pytest.approx(
            exact, abs=1e-10
        )

    def test_fourth_order_convergence(self):
        errs = [
            abs(simpson_quadrature(np.sin, 0, np.pi, n) - 2.0) for n in (64, 128, 256)
        ]
        assert 12 < errs[0] / errs[1] < 20
        assert 12 < errs[1] / errs[2] < 20

    def test_agrees_with_adaptive_quadrature(self):
        fn = lambda u: np.exp(-u) * np.cos(3 * u)
        adaptive, _ = quad(fn, 0.0, TWO_PI)
        assert simpson_quadrature(fn, 0.0, TWO_PI, 4096) == pytest.approx(adaptive, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 3, -2])
    def test_invalid_node_counts(self, n):
        with pytest.raises(InvalidGridError):
            simpson_quadrature(np.sin, 0, 1, n)
