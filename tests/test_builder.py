import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circleloop import (
    FourierSeries,
    build_loop_spec,
    f_inv_from_weight,
    integral_inequality_value,
    reflect_spec,
    solve_a0,
    solve_g_const,
    subfunction_bound,
    weight_from_f_inv,
)
from circleloop import builder
from circleloop.builder import Tolerances, _at_zero, _q_on_grid, uniform_grid
from circleloop.errors import NonPositiveProfileError
from circleloop.fourier import _grid_min
from circleloop.specfile import load_spec_file

from conftest import (
    dense_admissible_spec, near_boundary_spec, random_admissible_spec, random_admissible_weight,
    simpson_quadrature,
)
from matrix_oracle import _admissibility_q, transitivity_quadratic

TWO_PI = 2.0 * np.pi
SPECS = Path(__file__).resolve().parent.parent / "specs"

EXAMPLE_WEIGHT = FourierSeries(0.9, (0.2,), (0.0,))


def integral_form(weight: FourierSeries, t: float, n: int = 8192) -> float:
    """Quadrature oracle for the profile reciprocal: e^t (1 - int_0^t w e^-u du).

    The default rule is dense because the e^t factor amplifies the
    quadrature error near 2*pi.
    """
    q = simpson_quadrature(lambda u: weight(u) * np.exp(-u), 0.0, t, n)
    return math.exp(t) * (1.0 - q)


class TestProfileFromWeight:
    def test_trivial_weight_gives_constant_one(self):
        assert f_inv_from_weight(FourierSeries(1.0)) == FourierSeries(1.0)

    def test_example_coefficients(self):
        # frozen from the integral form: 0.9 + 0.1 cos t - 0.1 sin t
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        assert f_inv == FourierSeries(0.9, (0.1,), (-0.1,))

    def test_example_matches_integral_form(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        for t in np.linspace(0.0, TWO_PI, 33):
            assert float(f_inv(t)) == pytest.approx(integral_form(EXAMPLE_WEIGHT, float(t)), abs=1e-8)

    def test_random_weights_match_integral_form(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            w = random_admissible_weight(rng)
            f_inv = f_inv_from_weight(w)
            for t in rng.uniform(0.0, TWO_PI, 8):
                assert float(f_inv(t)) == pytest.approx(integral_form(w, float(t)), abs=1e-8)

    def test_boundary_closure(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            f_inv = f_inv_from_weight(random_admissible_weight(rng))
            assert abs(float(f_inv(0.0)) - 1.0) < 1e-9
            assert abs(float(f_inv(TWO_PI)) - 1.0) < 1e-9


class TestWeightInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            w = random_admissible_weight(rng)
            back = weight_from_f_inv(f_inv_from_weight(w))
            assert back.a0 == pytest.approx(w.a0, abs=1e-14)
            assert np.allclose(back.cos, w.cos, atol=1e-14)
            assert np.allclose(back.sin, w.sin, atol=1e-14)

    def test_is_profile_minus_derivative(self):
        f_inv = FourierSeries(0.8, (0.15, 0.05), (-0.1, 0.02))
        w = weight_from_f_inv(f_inv)
        ts = np.linspace(0, TWO_PI, 25)
        assert np.allclose(w(ts), f_inv(ts) - f_inv.derivative_at(ts), atol=1e-14)


class TestSubfunctionBound:
    def test_trivial_profile_gives_identity(self):
        one = FourierSeries(1.0)
        for t in (0.3, 1.0, np.pi, TWO_PI):
            assert subfunction_bound(one, t) == pytest.approx(t, abs=1e-14)

    def test_zero_at_origin_exactly(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        assert subfunction_bound(f_inv, 0.0) == 0.0

    def test_example_endpoint_value(self):
        # int_0^{2pi} (f_inv^2 - f_inv'^2) = 2pi*(0.81 + 0.01) - 2pi*0.01 = 1.62*pi
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        assert subfunction_bound(f_inv, TWO_PI) == pytest.approx(1.62 * np.pi, abs=1e-12)

    def test_matches_quadrature(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        energy = lambda u: f_inv(u) ** 2 - f_inv.derivative_at(u) ** 2
        for t in (0.7, 2.5, 5.0):
            oracle = simpson_quadrature(energy, 0.0, t, 1024) / float(f_inv(t))
            assert subfunction_bound(f_inv, t) == pytest.approx(oracle, abs=1e-9)

    def test_initial_slope(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        eps = 1e-7
        slope = subfunction_bound(f_inv, eps) / eps
        expected = 1.0 - f_inv.derivative_at(0.0) ** 2
        assert slope == pytest.approx(expected, abs=1e-6)

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(NonPositiveProfileError):
            subfunction_bound(FourierSeries(1.0, (1.5,), (0.0,)), 1.0)

    def test_vectorized_matches_scalar(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        ts = np.linspace(0.1, TWO_PI, 9)
        vec = subfunction_bound(f_inv, ts)
        assert np.allclose(vec, [subfunction_bound(f_inv, float(t)) for t in ts])


class TestDiscriminant:
    def test_trivial_is_minus_one(self):
        r = build_loop_spec(FourierSeries(1.0), grid_n=512).report
        assert r.discriminant_max == pytest.approx(-1.0, abs=1e-15)
        assert r.initial_slope_margin == pytest.approx(1.0)

    def test_example_matches_dense_direct_formula(self):
        r = build_loop_spec(EXAMPLE_WEIGHT, grid_n=4096).report
        assert r.discriminant_max < 0
        # independent dense evaluation of (f_inv'^2 - f_inv^2)/f_inv^4
        ts = np.linspace(0, TWO_PI, 1_000_001)
        fh = 0.9 + 0.1 * np.cos(ts) - 0.1 * np.sin(ts)
        fhp = -0.1 * np.sin(ts) - 0.1 * np.cos(ts)
        dense = np.max((fhp**2 - fh**2) / fh**4)
        assert r.discriminant_max == pytest.approx(dense, abs=1e-9)

    def test_initial_slope_violation(self):
        # steeply decreasing shear at the identity: g'(0) = -2 is not > -1
        g = FourierSeries(0.0, (0.0,), (-2.0,))
        r = build_loop_spec(FourierSeries(1.0), g, grid_n=512).report
        assert r.initial_slope_margin == pytest.approx(-1.0)
        assert not r.verdict
        # Q(0) is the initial-slope margin, so the discriminant condition decides
        assert "discriminant" in {f.condition for f in r.failures}

    def test_sign_matches_quadratic_positivity(self):
        # the discriminant condition is exactly positivity of the
        # transitivity quadratic for every w
        rng = np.random.default_rng(41)
        n = 512
        ts = np.linspace(0, TWO_PI, n, endpoint=False)
        w_base = np.concatenate(
            [-np.logspace(-3, 3, 13), [0.0], np.logspace(-3, 3, 13), [-1e6, 1e6]]
        )
        agreements = 0
        for i in range(200):
            w = random_admissible_weight(rng)
            scale = rng.choice([0.5, 5.0, 50.0])
            k = int(rng.integers(1, 4))
            gcos = tuple(scale * rng.normal(0, 0.05, k))
            g = FourierSeries(solve_g_const(gcos), gcos, tuple(scale * rng.normal(0, 0.05, k)))
            spec = build_loop_spec(w, g, grid_n=n)
            # include the per-t minimizing w, which makes the sampling sharp
            fh = spec.f_inv(ts)
            f, fp = 1.0 / fh, -spec.f_inv.derivative_at(ts) / fh**2
            gv, gp = g(ts), g.derivative_at(ts)
            a_coef = gp * f + gv * fp + gv * gv * f * f + 1.0
            b_coef = -2.0 * f * fp - 2.0 * gv * f**3
            with np.errstate(divide="ignore", invalid="ignore"):
                w_crit = np.where(np.abs(a_coef) > 1e-12, -b_coef / (2 * a_coef), 0.0)
            quad_min = min(
                min(float(np.min(transitivity_quadratic(spec, wv, ts))) for wv in w_base),
                float(np.min(transitivity_quadratic(spec, w_crit, ts))),
            )
            agreements += (spec.report.discriminant_max < 0) == (quad_min > 0)
        assert agreements == 200


def random_pair(k: int, seed: int, scale: float) -> tuple[FourierSeries, FourierSeries]:
    """Weight and shear with k harmonics decaying like scale/k^2, weight identity and g(0) = 0 exact."""
    rng = np.random.default_rng(seed)
    c, s, gc, gs = (tuple(scale * rng.normal(size=k) / np.arange(1, k + 1) ** 2) for _ in range(4))
    return FourierSeries(solve_a0(c, s), c, s), FourierSeries(solve_g_const(gc), gc, gs)


def grid_samples(f_inv: FourierSeries, g: FourierSeries, n: int):
    return [s._on_grid(n) for s in (f_inv, f_inv.derivative(), g, g.derivative())]


def coefficient_size(s: FourierSeries) -> float:
    return abs(s.a0) + float(np.abs(s.cos).sum() + np.abs(s.sin).sum())


#: the failure names of the verdict, one per condition
VERDICT_CONDITIONS = {"weight-identity", "g-boundary", "profile-positivity", "discriminant"}


def g_bound_margin(f_inv: FourierSeries, g: FourierSeries, n: int) -> float:
    """Minimum of g + h over the interior points of the n-point grid, h = subfunction_bound."""
    ts = uniform_grid(n)[1:]
    return float(np.min(g(ts) + subfunction_bound(f_inv, ts, grid_n=n)))


Q_DEGREES = st.sampled_from([1, 2, 8, 64])
Q_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestAdmissibilityPolynomial:
    """The verdict's polynomial Q = g'F + gF' + F^2 - F'^2: one series, read on the build grid."""

    @Q_PROPERTY
    @given(k=Q_DEGREES, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.05, 0.5, 3.0]))
    def test_grid_matches_exact_series(self, k, seed, scale):
        weight, g = random_pair(k, seed, scale)
        f_inv = weight._profile
        exact = f_inv._admissibility(g)
        assert exact == (g * f_inv).derivative() + f_inv._energy
        n = 4 * (2 * k) + 16
        q, _ = _q_on_grid(f_inv, g, n)
        # the four-sample reference, from the grids of F, F', g and g'
        reference, _ = _admissibility_q(*grid_samples(f_inv, g, n))
        tol = 1e-12 * coefficient_size(exact)
        assert np.all(np.abs(q - reference) <= tol)
        assert np.all(np.abs(q - exact(uniform_grid(n))) <= tol)
        r = build_loop_spec(weight, g, grid_n=n).report
        assert r.grid_n == n
        assert r.q_min == q.min()
        assert r.q_argmin == uniform_grid(n)[q.argmin()]
        assert r.initial_slope_margin == q[0]

    @Q_PROPERTY
    @given(k=Q_DEGREES, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.05, 0.5, 3.0]))
    def test_is_minus_discriminant_times_f_inv_to_the_fourth(self, k, seed, scale):
        weight, g = random_pair(k, seed, scale)
        f_inv = weight._profile
        n = 4 * (2 * k) + 16
        q, disc = _q_on_grid(f_inv, g, n)
        fh, fhp, gv, gp = samples = grid_samples(f_inv, g, n)
        pos = fh > 0.0
        # the discriminant in f = 1/f_inv, as the transitivity quadratic gives it
        f, fp = 1.0 / fh[pos], -fhp[pos] / fh[pos] ** 2
        direct = fp * fp + gv[pos] * f * f * fp - gp[pos] * f**3 - f * f
        # the pointwise terms' size, and the series' own for its rounding
        scale_q = fhp * fhp + np.abs(gv * fhp) + np.abs(gp * fh) + fh * fh
        scale_q += coefficient_size(f_inv._admissibility(g))
        assert np.all(np.abs(direct * fh[pos] ** 4 + q[pos]) <= 1e-12 * scale_q[pos])
        assert np.all(np.abs(disc[pos] - direct) <= 1e-12 * scale_q[pos] * f**4)
        assert np.all(np.isnan(disc[~pos]))
        _, reference = _admissibility_q(*samples)
        assert np.all(np.abs(disc[pos] - reference[pos]) <= 1e-12 * scale_q[pos] * f**4)
        assert np.array_equal(np.isnan(disc), np.isnan(reference))

    @pytest.mark.parametrize(
        "weight, g",
        [
            # F^2 leaves the float range
            (FourierSeries(1e160, (1e160,), (0.0,)), FourierSeries(0.0)),
            # (gF)' does: the derivative doubles a coefficient of 1e308
            (FourierSeries(1.0), FourierSeries(-1e308, (1e308, 0.0), (0.0, 1e308))),
        ],
        ids=["energy", "shear"],
    )
    def test_overflowing_series_reads_as_all_nan(self, weight, g):
        # Q has no series: the verdict reads an all-NaN Q and fails the
        # discriminant, without a warning (RuntimeWarnings are errors here)
        spec = build_loop_spec(weight, g)
        assert spec.f_inv._admissibility(spec.g) is None
        q, disc = _q_on_grid(spec.f_inv, spec.g, spec.report.grid_n)
        assert np.isnan(q).all() and np.isnan(disc).all()
        assert math.isnan(spec.report.q_min)
        assert math.isnan(spec.report.initial_slope_margin)
        assert "discriminant" in {f.condition for f in spec.report.failures}

    def test_admitted_specs_satisfy_the_implied_conditions(self):
        # Q > 0 implies each of them; they are diagnostics, not conditions
        admitted = 0
        for k in (1, 2, 8, 64):
            for seed in range(25):
                for scale in (0.05, 0.5, 3.0):
                    spec = build_loop_spec(*random_pair(k, seed, scale))
                    r = spec.report
                    assert {f.condition for f in r.failures} <= VERDICT_CONDITIONS
                    if r.verdict:
                        admitted += 1
                        assert r.q_min > 0
                        assert r.initial_slope_margin > 0
                        assert g_bound_margin(spec.f_inv, spec.g, r.grid_n) > 0
                        assert r.integral_value > 0
        assert admitted >= 100


class TestGAdmissible:
    def test_trivial_margin_is_first_interior_bound(self):
        margin = g_bound_margin(FourierSeries(1.0), FourierSeries(0.0), 4096)
        # g == 0 and h(t) = t, so the margin is h at the first interior grid point
        assert margin == pytest.approx(TWO_PI / 4096, abs=1e-12)
        r = build_loop_spec(FourierSeries(1.0), grid_n=4096).report
        assert r.discriminant_max == pytest.approx(-1.0)

    def test_marginal_shear_decided_by_discriminant(self):
        # g = -(1 - cos t) satisfies the comparison bound near 0 but its
        # discriminant maximum touches 0, so it is not strictly admissible
        g = FourierSeries(-1.0, (1.0,), (0.0,))
        assert g_bound_margin(FourierSeries(1.0), g, 4096) > 0
        r = build_loop_spec(FourierSeries(1.0), g, grid_n=4096).report
        assert r.discriminant_max == pytest.approx(0.0, abs=1e-6)
        assert not r.verdict


class TestIntegralInequality:
    def test_example_value(self):
        f_inv = f_inv_from_weight(EXAMPLE_WEIGHT)
        assert integral_inequality_value(f_inv) == pytest.approx(1.62 * np.pi, abs=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            f_inv = f_inv_from_weight(random_admissible_weight(rng))
            energy = lambda u: f_inv(u) ** 2 - f_inv.derivative_at(u) ** 2
            oracle = simpson_quadrature(energy, 0.0, TWO_PI, 2048)
            assert integral_inequality_value(f_inv) == pytest.approx(oracle, abs=1e-9)

    def test_coefficient_identity_in_weight_terms(self):
        # equals pi * (2 a0^2 - sum (a_k^2 + b_k^2)(k^2-1)/(k^2+1))
        rng = np.random.default_rng(47)
        for _ in range(10):
            w = random_admissible_weight(rng)
            expected = np.pi * (
                2.0 * w.a0**2
                - sum(
                    (a * a + b * b) * (k * k - 1) / (k * k + 1)
                    for k, (a, b) in enumerate(zip(w.cos, w.sin), 1)
                )
            )
            got = integral_inequality_value(f_inv_from_weight(w))
            assert got == pytest.approx(expected, abs=1e-12)


class TestBuildLoopSpec:
    def test_trivial(self, trivial_spec):
        r = trivial_spec.report
        assert r.verdict
        assert r.discriminant_max == pytest.approx(-1.0)
        assert r.integral_value == pytest.approx(TWO_PI)
        assert r.failures == ()

    def test_example(self, example_spec):
        r = example_spec.report
        assert r.verdict
        assert r.f_inv_min == pytest.approx(0.9 - 0.1 * math.sqrt(2), abs=1e-6)
        assert r.integral_value == pytest.approx(1.62 * np.pi, abs=1e-12)

    def test_identity_violation_reported(self):
        spec = build_loop_spec(FourierSeries(0.5))
        assert not spec.report.verdict
        found = [f for f in spec.report.failures if f.condition == "weight-identity"]
        assert len(found) == 1
        assert found[0].value == pytest.approx(0.5)
        assert found[0].where is None

    def test_hostile_input_does_not_raise(self):
        # profile dips negative: values that divide by it are NaN, Q is not
        spec = build_loop_spec(FourierSeries(0.9, (40.0,), (0.0,)))
        assert not spec.report.verdict
        assert math.isnan(spec.report.discriminant_max)
        assert math.isfinite(spec.report.q_min)
        conditions = {f.condition for f in spec.report.failures}
        assert "profile-positivity" in conditions
        # F^2 overflows on the grid at 1e160, F^4 at 1e100: no warning, no raise
        for big in (1e160, 1e100):
            spec = build_loop_spec(FourierSeries(big, (big,), (0.0,)))
            assert not spec.report.verdict
            assert "discriminant" in {f.condition for f in spec.report.failures}

    def test_equalities_share_one_tolerance(self):
        # 5e-10 lies above tol_eq = 1e-10: each residual fails its one condition
        r = build_loop_spec(FourierSeries(1.0 + 5e-10)).report
        assert [(f.condition, f.where) for f in r.failures] == [("weight-identity", None)]
        g = FourierSeries(5e-10, (0.0,), (0.01,))
        r = build_loop_spec(FourierSeries(1.0), g).report
        assert [(f.condition, f.where) for f in r.failures] == [("g-boundary", 0.0)]
        assert build_loop_spec(FourierSeries(1.0), g, tolerances=Tolerances(tol_eq=1e-9)).verdict

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol_eq": float("nan")},
            {"tol_eq": -1e-10},
            {"delta_strict": float("inf")},
            {"delta_strict": -1e-9},
            {"tol_eq": float("inf")},
            {"delta_strict": float("nan")},
            {"tol_eq": 1e-10, "delta_strict": -float("inf")},
        ],
    )
    def test_tolerances_fail_closed(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)

    def test_weight_margin_is_profile_minimum(self):
        # f_inv_min is the minimum of the weight's profile on the 4096-point
        # grid: bit for bit its FFT samples, and their Horner values to 1e-15
        rng = np.random.default_rng(101)
        ts = uniform_grid(4096)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            cos, sin = tuple(rng.normal(0.0, 0.3, k)), tuple(rng.normal(0.0, 0.3, k))
            w = FourierSeries(solve_a0(cos, sin), cos, sin)
            r = build_loop_spec(w).report
            assert r.f_inv_min == float(np.min(w._profile._on_grid(4096)))
            assert r.f_inv_min == pytest.approx(float(np.min(w._profile(ts))), abs=1e-15)

    def test_weight_identity_residual_is_f0_residual(self):
        # f0_residual is |F(0) - 1| of the weight's profile, within rounding
        # of |a0 + sum (cos_k + k sin_k)/(1+k^2) - 1|
        rng = np.random.default_rng(103)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            cos, sin = tuple(rng.normal(0.0, 0.3, k)), tuple(rng.normal(0.0, 0.3, k))
            w = FourierSeries(solve_a0(cos, sin), cos, sin)
            r = build_loop_spec(w).report
            assert r.f0_residual == abs(float(w._profile(0.0)) - 1.0)
            kk = np.arange(1, k + 1)
            identity = w.a0 + float(np.sum((np.array(cos) + kk * np.array(sin)) / (1 + kk**2)))
            assert r.f0_residual == pytest.approx(abs(identity - 1.0), abs=1e-15)

    def test_energy_series_built_once(self, monkeypatch):
        # g * f_inv, f_inv * f_inv and f_inv' * f_inv' build Q once per pair
        # (F, g), and every later build of the pair reads it
        calls = []
        product = FourierSeries.__mul__

        def counted(a, b):
            calls.append((a, b))
            return product(a, b)

        monkeypatch.setattr(FourierSeries, "__mul__", counted)
        k = np.arange(1, 65)
        cos, sin = tuple(0.2 / k**2), tuple(0.1 / k**2)
        g = FourierSeries(solve_g_const(cos), cos, sin)
        weight = FourierSeries(solve_a0(cos, sin), cos, sin)
        build_loop_spec(weight, g)
        assert len(calls) == 3
        build_loop_spec(weight, g)
        assert len(calls) == 3

    def test_grid_resolves_high_harmonics(self):
        cos = (0.0,) * 40 + (0.01,)
        sin = (0.0,) * 41
        spec = build_loop_spec(FourierSeries(solve_a0(cos, sin), cos, sin), grid_n=64)
        assert spec.report.grid_n >= 4 * 41 + 16


class TestReflect:
    def test_example_coefficients(self, example_spec):
        mirror = reflect_spec(example_spec)
        assert mirror.f_inv == FourierSeries(0.9, (0.1,), (0.1,))
        assert mirror.report.verdict

    def test_trivial_fixed_point(self, trivial_spec):
        mirror = reflect_spec(trivial_spec)
        assert mirror.f_inv == trivial_spec.f_inv
        assert mirror.g == trivial_spec.g

    def test_involution_exact(self, example_spec, shear_spec, even_spec):
        for spec in (example_spec, shear_spec, even_spec):
            back = reflect_spec(reflect_spec(spec))
            assert back.f_inv == spec.f_inv
            assert back.g == spec.g
            assert back.weight.a0 == pytest.approx(spec.weight.a0, abs=1e-15)
            assert np.allclose(back.weight.cos, spec.weight.cos, atol=1e-15)
            assert np.allclose(back.weight.sin, spec.weight.sin, atol=1e-15)

    def test_verdict_preserved(self, example_spec, shear_spec, even_spec):
        rng = np.random.default_rng(53)
        specs = [example_spec, shear_spec, even_spec]
        specs += [random_admissible_spec(rng) for _ in range(10)]
        for spec in specs:
            assert reflect_spec(spec).report.verdict == spec.report.verdict

    def test_reflected_margins_match(self, shear_spec):
        # the defining expressions at t map to the mirror's at -t, and the
        # grid is symmetric, so extrema agree to rounding
        mirror = reflect_spec(shear_spec)
        assert mirror.report.discriminant_max == pytest.approx(
            shear_spec.report.discriminant_max, abs=1e-12
        )
        assert mirror.report.f_inv_min == pytest.approx(shear_spec.report.f_inv_min, abs=1e-12)

    def test_shear_reflection_signs(self, shear_spec):
        # g = 0.05 sin t is odd, so -g(-t) = g: the shear is fixed
        mirror = reflect_spec(shear_spec)
        assert mirror.g == shear_spec.g


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def grid_discriminant(f_inv: FourierSeries, g: FourierSeries, n: int):
    """The discriminant's grid maximum and angle, straight from `_q_on_grid`."""
    neg_max, where = _grid_min(-_q_on_grid(f_inv, g, n)[1])
    return -neg_max, where


class TestMeasuredOnlyForTheVerdict:
    """The build measures F(0), g(0), min F and min Q; the discriminant is
    derived from the report's (F, g, grid_n) when it is first read."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        k=st.sampled_from([0, 0, 1, 2, 7, 256, 1000]),
        seed=st.integers(0, 2**32 - 1),
        a0=st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3),
        zeros=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]),
    )
    @example(k=1, seed=0, a0=-0.0, zeros=1.0, scale=1.0)
    def test_closed_form_at_zero_is_horner(self, k, seed, a0, zeros, scale):
        # at t = 0 Horner's rule adds the cosine coefficients from the last,
        # and so does the closed form: the value agrees bit for bit, except
        # that an exact zero may differ in sign (a0 and every cosine -0.0),
        # and the residuals the verdict reads agree bit for bit always
        rng = np.random.default_rng(seed)
        c, s = scale * rng.normal(size=(2, k))
        c[rng.uniform(size=k) < zeros] = 0.0
        s[rng.uniform(size=k) < zeros] = 0.0
        c, s = np.copysign(c, rng.normal(size=k)), np.copysign(s, rng.normal(size=k))
        series = FourierSeries(a0, c, s)
        horner, closed = float(series(0.0)), _at_zero(series)
        if closed == 0.0:
            assert horner == 0.0
        else:
            assert bits(closed) == bits(horner)
        assert bits(abs(closed - 1.0)) == bits(abs(horner - 1.0))
        assert bits(abs(closed)) == bits(abs(horner))

    def test_build_does_not_compute_the_discriminant(self, monkeypatch):
        cases = [
            (FourierSeries(0.9, (0.2,), (0.0,)), FourierSeries(0.0, (0.0,), (0.05,))),
            (FourierSeries(0.3, (0.7,), (0.7,)), builder.TRIVIAL_G),
            (FourierSeries(1.0), FourierSeries(0.0, (0.0,), (-2.0,))),
        ]
        before = [build_loop_spec(w, g).report for w, g in cases]
        expected = before[0].discriminant_max, before[0].discriminant_argmax

        def refuse(*args):
            raise AssertionError("the build computed the discriminant")

        monkeypatch.setattr(builder, "_q_on_grid", refuse)
        # fresh series, so no cached grid or Q series is shared with `before`
        fresh = lambda s: FourierSeries(s.a0, s.cos, s.sin)
        after = [
            build_loop_spec(fresh(w), fresh(g)).report for w, g in cases
        ]
        for old, new in zip(before, after):
            assert (new.verdict, new.q_min, new.failures) == (old.verdict, old.q_min, old.failures)
            assert new == old

        calls = []

        def counted(*args):
            calls.append(args)
            return _q_on_grid(*args)

        monkeypatch.setattr(builder, "_q_on_grid", counted)
        r = after[0]
        assert r.discriminant_max == expected[0]
        assert len(calls) == 1
        assert (r.discriminant_max, r.discriminant_argmax) == expected
        assert len(calls) == 1

    def test_report_holds_no_array(self, shear_spec):
        r = shear_spec.report
        r.discriminant_max
        assert not any(isinstance(v, np.ndarray) for v in vars(r).values())
        assert all(type(v) is float for v in r._discriminant)

    def test_fixture_and_spec_file_values_are_the_grid_formula(self, request):
        specs = [
            request.getfixturevalue(name)
            for name in ("trivial_spec", "example_spec", "shear_spec", "even_spec",
                         "corrupted_spec")
        ]
        specs += [random_admissible_spec(np.random.default_rng(7)), dense_admissible_spec(3, 64)]
        specs += [near_boundary_spec(delta) for delta in (-1e-6, 1e-6)]
        for path in sorted(SPECS.glob("*.json")):
            doc = load_spec_file(path)
            tol = doc.tolerances or Tolerances()
            specs.append(build_loop_spec(doc.weight, doc.g, doc.grid_n or 4096, tol))
        for spec in specs:
            r = spec.report
            expected, where = grid_discriminant(r.f_inv, r.g, r.grid_n)
            assert math.isfinite(expected)
            assert bits(r.discriminant_max) == bits(expected)
            assert r.discriminant_argmax == where

    def test_undefined_maximum_names_no_angle(self):
        # F = 0.3 + 0.7 cos t + 0.7 sin t reaches -0.4: the discriminant is NaN
        # where F <= 0, so its maximum is NaN, and no sample is its angle
        r = build_loop_spec(FourierSeries(0.3, (0.7,), (0.7,))).report
        assert math.isnan(r.discriminant_max)
        assert r.discriminant_argmax is None
        assert math.isnan(grid_discriminant(r.f_inv, r.g, r.grid_n)[0])
        # a defined maximum keeps the angle of its grid sample
        r = build_loop_spec(FourierSeries(0.9, (0.2,), (0.0,)), grid_n=512).report
        assert r.discriminant_argmax == grid_discriminant(r.f_inv, r.g, 512)[1]
        assert r.discriminant_argmax in set(uniform_grid(512).tolist())
