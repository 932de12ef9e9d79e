import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleloop import (
    FourierSeries,
    Tolerances,
    build_loop_spec,
    eta,
    ldiv,
    mul,
    rdiv,
    solve_a0,
    solve_g_const,
    weight_from_f_inv,
)
from circleloop.errors import InvalidSpecError, RootNotBracketedError
from circleloop.ops import (
    _ldiv_unchecked,
    _mul_unchecked,
    _rdiv_unchecked,
)
from circleloop.builder import _q_on_grid
from circleloop.fourier import _sincos
from circleloop.specfile import load_spec_file
from circleloop.verify import _least_eta_slope, run_baer_suite

from conftest import circ_dist, random_admissible_spec
from matrix_oracle import (
    angle_of,
    bisection_rdiv,
    coset_angle,
    det,
    eta_derivative_expr,
    kh_decompose,
    ldiv_angle,
    product_angle,
    rot,
    section,
    transitivity_quadratic,
    translation_steps,
    upper,
)

TWO_PI = 2.0 * np.pi

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPEC_FILES = sorted(p.name for p in SPEC_DIR.glob("*.json"))


def spec_from_file(name: str):
    """A fixture spec built as the CLI builds it, whatever its verdict.

    "k64" names an admissible spec with 64 harmonics in both f_inv and g.
    """
    if name == "k64":
        k = np.arange(1, 65)
        wc, ws, gc, gs = (tuple(x / k**2) for x in (0.2, 0.1, 0.02, 0.03))
        return build_loop_spec(
            FourierSeries(solve_a0(wc, ws), wc, ws), FourierSeries(solve_g_const(gc), gc, gs)
        )
    doc = load_spec_file(SPEC_DIR / name)
    return build_loop_spec(
        doc.weight, doc.g, grid_n=doc.grid_n or 4096, tolerances=doc.tolerances or Tolerances()
    )


def shaped_spec(rng, k: int, f_min: float, g_max: float):
    """A spec of k random harmonics whose f_inv reaches about f_min and |g| about g_max.

    f_inv = 1 - a dip with dip(0) = 0, scaled on a 4097-point grid, so
    f_inv(0) = 1 and g(0) = 0; admissible or not.
    """
    grid = np.linspace(0.0, TWO_PI, 4097)
    pc, ps, gc, gs = rng.normal(size=(4, k)) / np.arange(1, k + 1)
    dip = FourierSeries(-pc.sum(), pc, ps)  # dip(0) = 0, so min dip <= 0
    pc, ps = (1.0 - f_min) / max(-dip(grid).min(), 1e-3) * np.array([pc, ps])
    shear = FourierSeries(solve_g_const(tuple(gc)), gc, gs)
    gc, gs = g_max / max(np.abs(shear(grid)).max(), 1e-3) * np.array([gc, gs])
    f_inv = FourierSeries(1.0 - pc.sum(), pc, ps)
    return build_loop_spec(
        weight_from_f_inv(f_inv), FourierSeries(solve_g_const(tuple(gc)), gc, gs)
    )


def baer_details(spec):
    """Suite `baer` on spec, and its details by name as (where, value)."""
    res = run_baer_suite(spec)
    return res, {name: (where, value) for name, where, value in res.details}


def least_slope_on_grid(spec):
    """The grid suite `baer` reads, and r, m and the least eta slope on it."""
    n = spec.report.grid_n
    return n, *_least_eta_slope(spec, n)


def bisection_ldiv(spec, a, b, steps: int = 51):
    """Reference left division: bisection on the lift of y -> a * y - a."""
    target = (b - a) % TWO_PI
    lo, hi = np.zeros(target.shape), np.full(target.shape, TWO_PI)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        go_right = (_mul_unchecked(spec, a, mid) - a) % TWO_PI < target
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    return (0.5 * (lo + hi)) % TWO_PI


def reference_eta_lift(spec, beta: float, ts):
    """Reference eta_beta lift: the first column of rot(t - beta) @ F(t) @ rot(beta)."""
    fh = spec.f_inv(ts)
    f, g = 1.0 / fh, spec.g(ts)
    cb, sb = np.cos(beta), np.sin(beta)
    radial = f * cb - g * sb
    ctb, stb = np.cos(ts - beta), np.sin(ts - beta)
    return np.unwrap(np.arctan2(radial * stb + fh * sb * ctb, radial * ctb - fh * sb * stb))


def reference_translation_steps(spec, anchors, ts, translation: str):
    """Reference forward steps: each translation's coset angles along ts, unwrapped, then differenced.

    "left" is t -> a * t and "right" is t -> t * a; the steps do not
    depend on the constant a by which eta_a is shifted.
    """
    anchors = np.asarray(anchors, dtype=float)[:, None]
    if translation == "left":
        u, x, y = anchors, 0.0, ts
    else:
        u, x, y = ts, ts - anchors, anchors
    fh = spec.f_inv(u)
    return np.diff(np.unwrap(coset_angle(1.0 / fh, spec.g(u), fh, x, y), axis=-1), axis=-1)


def left_translation_steps(spec, anchors, ts) -> np.ndarray:
    """Forward steps along ts of t -> a * t, one row per anchor, by matrix algebra.

    The package scans no left translation: each is the action of the one
    unimodular matrix sigma(a).  Row i holds the signed angles between
    consecutive coset vectors (m11, -m21) of sigma(a_i) @ rot(t), whose
    first columns are sigma(a_i) @ (cos t, -sin t).
    """
    rows = []
    for a in np.asarray(anchors, dtype=float):
        fh = float(spec.f_inv(a))
        sigma = rot(a) @ np.array([[1.0 / fh, float(spec.g(a))], [0.0, fh]])
        x, m21 = sigma @ np.array([np.cos(ts), -np.sin(ts)])
        y = -m21
        rows.append(np.arctan2(x[:-1] * y[1:] - y[:-1] * x[1:], x[:-1] * x[1:] + y[:-1] * y[1:]))
    return np.array(rows)


def stacked_steps(spec, anchors, ts, translation: str = "right") -> np.ndarray:
    """Forward steps, one row per anchor: the dense-beta reference scan of eta
    (`translation_steps`, "right"), or `left_translation_steps` ("left")."""
    if translation == "right":
        return translation_steps(spec, anchors, ts)
    return left_translation_steps(spec, anchors, ts)


#: negative anchors too: a step does not depend on the anchor's turn
SCAN_ANCHORS = np.concatenate([np.linspace(0.0, TWO_PI, 16, endpoint=False), [-1.2, -0.3]])


def mod_pi_dist(x, y):
    d = (x - y) % np.pi
    return min(d, np.pi - d)


class TestSection:
    def test_trivial_is_rotation(self, trivial_spec):
        assert np.allclose(section(trivial_spec, 0.7).matrix, rot(0.7), atol=1e-15)

    def test_identity_at_origin(self, example_spec):
        assert np.allclose(section(example_spec, 0.0).matrix, np.eye(2), atol=1e-12)
        assert np.allclose(section(example_spec, TWO_PI).matrix, np.eye(2), atol=1e-12)

    def test_example_at_pi(self, example_spec):
        # f_inv(pi) = 0.9 - 0.1 = 0.8, so f(pi) = 1.25 and g(pi) = 0
        pt = section(example_spec, np.pi)
        assert np.allclose(pt.matrix, rot(np.pi) @ upper(1.25, 0.0), atol=1e-12)
        theta, h = kh_decompose(pt.matrix)
        assert theta == pytest.approx(np.pi, abs=1e-12)
        assert h.a == pytest.approx(1.25, abs=1e-12)

    def test_determinant(self, shear_spec):
        for t in np.linspace(0, TWO_PI, 17):
            assert abs(det(section(shear_spec, float(t)).matrix) - 1.0) < 1e-9

    def test_invalid_spec_rejected(self):
        bad = build_loop_spec(FourierSeries(0.5))
        with pytest.raises(InvalidSpecError):
            section(bad, 1.0)


class TestMul:
    def test_trivial_is_rotation_addition(self, trivial_spec):
        assert mul(trivial_spec, 1.0, 2.0) == pytest.approx(3.0, abs=1e-12)
        assert mul(trivial_spec, 5.0, 2.0) == pytest.approx(7.0 - TWO_PI, abs=1e-12)

    def test_identity_laws(self, example_spec, shear_spec, even_spec):
        ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        for spec in (example_spec, shear_spec, even_spec):
            assert np.max(circ_dist(mul(spec, 0.0, ts), ts)) < 1e-10
            assert np.max(circ_dist(mul(spec, ts, 0.0), ts)) < 1e-10

    def test_example_half_pi_pair(self, example_spec):
        # independent matrix computation gives exactly pi:
        # rot(pi/2) @ diag(1.25, 0.8) @ rot(pi/2) = diag(-0.8, -1.25)
        assert mul(example_spec, np.pi / 2, np.pi / 2) == pytest.approx(np.pi, abs=1e-12)

    def test_matches_matrix_oracle(self, shear_spec):
        rng = np.random.default_rng(59)
        for spec in (shear_spec, spec_from_file("k64")):
            assert spec.verdict
            for s, t in rng.uniform(0, TWO_PI, (25, 2)):
                m = section(spec, float(s)).matrix @ rot(float(t))
                assert circ_dist(mul(spec, s, t), angle_of(m)) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 2, 4, 8]),
        f_min=st.sampled_from([0.5, -0.5, -3.0]),
        g_max=st.sampled_from([0.0, 1.0, 1e3]),
    )
    def test_left_translation_monotone_degree_one(self, seed, k, f_min, g_max):
        # t -> a * t is the action of the one unimodular matrix sigma(a), so it
        # rises with degree one for every spec, admissible or not: here F reaches
        # f_min, down to F <= 0, and |g| reaches g_max, with |F(a)| >= 1e-3
        rng = np.random.default_rng(seed)
        spec = shaped_spec(rng, k, f_min, g_max)
        grid = np.linspace(0.0, TWO_PI, 4097)
        anchors = rng.uniform(0.0, TWO_PI, 16)
        anchors = anchors[np.abs(spec.f_inv(anchors)) >= 1e-3][:, None]
        assert anchors.size
        lift = np.unwrap(_mul_unchecked(spec, anchors, grid), axis=-1)
        assert np.diff(lift, axis=-1).min() > 0.0
        assert np.max(np.abs(lift[:, -1] - lift[:, 0] - TWO_PI)) <= 1e-9

    def test_invalid_spec_rejected(self):
        bad = build_loop_spec(FourierSeries(0.5))
        with pytest.raises(InvalidSpecError):
            mul(bad, 1.0, 2.0)


class TestDivisions:
    def test_trivial_subtraction(self, trivial_spec):
        assert ldiv(trivial_spec, 1.0, 2.0) == pytest.approx(1.0, abs=1e-11)
        assert rdiv(trivial_spec, 2.0, 1.0) == pytest.approx(1.0, abs=1e-11)
        assert ldiv(trivial_spec, 2.0, 1.0) == pytest.approx(TWO_PI - 1.0, abs=1e-11)

    def test_roundtrips(self, example_spec, shear_spec):
        rng = np.random.default_rng(61)
        for spec in (example_spec, shear_spec):
            a = rng.uniform(0, TWO_PI, 40)
            y = rng.uniform(0, TWO_PI, 40)
            assert np.max(circ_dist(ldiv(spec, a, mul(spec, a, y)), y)) < 1e-9
            assert np.max(circ_dist(rdiv(spec, mul(spec, y, a), a), y)) < 1e-9

    def test_division_solves_equation(self, shear_spec):
        y = ldiv(shear_spec, 1.0, 2.0)
        assert circ_dist(mul(shear_spec, 1.0, y), 2.0) < 1e-10
        x = rdiv(shear_spec, 2.0, 1.0)
        assert circ_dist(mul(shear_spec, x, 1.0), 2.0) < 1e-10

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    def test_closed_form_ldiv_matches_bisection(self, name):
        spec = spec_from_file(name)
        rng = np.random.default_rng(73)
        a, b = rng.uniform(0, TWO_PI, (2, 10000))
        assert np.max(circ_dist(_ldiv_unchecked(spec, a, b), bisection_ldiv(spec, a, b))) <= 1e-12

    def test_rdiv_unbracketed_on_inadmissible_spec(self):
        spec = spec_from_file("inadmissible.json")
        angles = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        aa, bb = np.meshgrid(angles, angles, indexing="ij")
        with pytest.raises(RootNotBracketedError):
            _rdiv_unchecked(spec, _mul_unchecked(spec, aa, bb), bb)

    def test_non_finite_points_give_nan(self, example_spec):
        for op in (mul, ldiv, rdiv):
            assert np.isnan(op(example_spec, np.nan, 1.0))
            assert np.isnan(op(example_spec, 1.0, np.inf))
            got = op(example_spec, np.array([2.0, np.nan, 2.0, -np.inf]), 1.0)
            assert np.isnan(got[[1, 3]]).all()
            assert got[0] == got[2] == op(example_spec, 2.0, 1.0)

    def test_rdiv_residual_check_fails_on_nan(self, example_spec, monkeypatch):
        from circleloop import ops

        # the bisection's product kernel, which takes the right factor's sincos
        monkeypatch.setattr(ops, "_mul_at", lambda spec, s, ct, st: np.full(np.shape(s), np.nan))
        with pytest.raises(RootNotBracketedError):
            _rdiv_unchecked(example_spec, 2.0, 1.0)

    def test_invalid_spec_rejected(self):
        bad = build_loop_spec(FourierSeries(0.5))
        with pytest.raises(InvalidSpecError):
            ldiv(bad, 1.0, 2.0)
        with pytest.raises(InvalidSpecError):
            rdiv(bad, 2.0, 1.0)


def same_bits(x, y) -> bool:
    """x and y are of one type and hold the same doubles, bit for bit."""
    return type(x) is type(y) and np.array_equal(
        np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64)
    )


def operand_pairs(rng, n: int):
    """Scalar pairs, scalars against arrays, arrays and a meshgrid: every
    shape the operations meet, with angles outside [0, 2*pi) too."""
    s, t = rng.uniform(-1.0, 7.5, (2, n))
    grid = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    scalars = [(float(x), float(y)) for x, y in zip(s[:8], t[:8])]
    return scalars + [(0.0, 0.0), (np.pi, TWO_PI), (float(s[0]), t), (s, float(t[0])), (s, t), (aa, bb)]


def assert_operations_match_composition(spec, rng, n: int = 500):
    """mul, ldiv and rdiv, gated and unchecked, equal the operations composed
    from `FourierSeries.__call__` bit for bit; each series' `_at` equals its
    `__call__` at the same angles."""
    for s, t in operand_pairs(rng, n):
        assert same_bits(_mul_unchecked(spec, s, t), product_angle(spec, s, t))
        assert same_bits(_ldiv_unchecked(spec, s, t), ldiv_angle(spec, s, t))
        if spec.verdict:
            assert same_bits(mul(spec, s, t), product_angle(spec, s, t))
            assert same_bits(ldiv(spec, s, t), ldiv_angle(spec, s, t))
            assert same_bits(rdiv(spec, s, t), bisection_rdiv(spec, s, t))
            assert same_bits(_rdiv_unchecked(spec, s, t), bisection_rdiv(spec, s, t))
    ts = rng.uniform(-1.0, 7.5, n)
    for series in (spec.f_inv, spec.g, spec.f_inv.derivative(), FourierSeries(0.3)):
        for t in (ts, float(ts[0]), 0.0):
            assert same_bits(series._at(*_sincos(np.asarray(t))), series(t))


class TestSharedSincos:
    """One sincos per angle, shared by the series and rotations of an
    operation, changes no bit of its result."""

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    def test_fixtures_match_composition(self, name):
        assert_operations_match_composition(spec_from_file(name), np.random.default_rng(83))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), max_k=st.sampled_from([1, 2, 4]))
    def test_small_k_specs_match_composition(self, seed, max_k):
        rng = np.random.default_rng(seed)
        assert_operations_match_composition(random_admissible_spec(rng, max_k), rng, 64)

    def test_rdiv_keeps_its_bisection(self, example_spec):
        # 50 halvings of the reference land elsewhere: the step count is pinned
        rng = np.random.default_rng(89)
        b, a = rng.uniform(0.0, TWO_PI, (2, 256))
        assert same_bits(rdiv(example_spec, b, a), bisection_rdiv(example_spec, b, a))
        assert not same_bits(rdiv(example_spec, b, a), bisection_rdiv(example_spec, b, a, 50))


class TestEta:
    def test_w_zero_is_identity_map(self, example_spec, shear_spec):
        for spec in (example_spec, shear_spec):
            for t in (0.0, 0.5, np.pi / 2, 3.0, TWO_PI):
                assert eta(spec, 0.0, t) == pytest.approx(t, abs=1e-12)

    def test_trivial_spec_all_w(self, trivial_spec):
        for w in (-100.0, -1.0, 0.0, 0.3, 7.0):
            for t in (0.4, np.pi / 2, 2.5, TWO_PI):
                assert eta(trivial_spec, w, t) == pytest.approx(t, abs=1e-12)

    def test_example_value_frozen(self, example_spec):
        # frozen from the conjugated-matrix decomposition oracle
        assert eta(example_spec, 1.0, np.pi / 4) == pytest.approx(0.6808088289158274, abs=1e-10)

    def test_matches_conjugated_matrix_decomposition(self, example_spec, shear_spec):
        for spec in (example_spec, shear_spec):
            for beta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2 - 0.01, 2.0):
                w = float(np.tan(beta))
                for t in (0.3, 1.4, np.pi / 2, 2.9, 4.4, 6.1):
                    lifted = eta(spec, w, t)
                    m = rot(-beta) @ section(spec, t).matrix @ rot(beta)
                    assert circ_dist(lifted, angle_of(m)) < 1e-8

    def test_matches_tan_quotient_formula(self, shear_spec):
        # transcription of the quotient form, valid away from tan poles
        rng = np.random.default_rng(67)
        for _ in range(60):
            w = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0.05, TWO_PI - 0.05))
            if abs(np.cos(t)) < 0.2:
                continue
            fh = float(shear_spec.f_inv(t))
            f, g = 1.0 / fh, float(shear_spec.g(t))
            tt = np.tan(t)
            num = (f - g * w) * (tt - w) + fh * w * (1.0 + w * tt)
            den = (f - g * w) * (1.0 + w * tt) + fh * w * (w - tt)
            assert mod_pi_dist(eta(shear_spec, w, t), np.arctan2(num, den)) < 1e-8

    def test_lift_continuity_through_poles(self, example_spec):
        ts = np.linspace(0.0, TWO_PI, 4097)
        lift = eta(example_spec, 2.5, ts)
        assert abs(lift[0]) < 1e-12
        assert np.max(np.abs(np.diff(lift))) < 0.05  # no branch jumps
        assert lift[-1] - lift[0] == pytest.approx(TWO_PI, abs=1e-9)

    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_lift_matches_reference_eta(self, name):
        spec = spec_from_file(name)
        if not spec.verdict:
            with pytest.raises(InvalidSpecError):
                eta(spec, 0.7, np.zeros(2))
            return
        for ts in (np.linspace(0.0, TWO_PI, 1025), np.linspace(-3.0, 20.0, 8193)):
            for beta in (-1.2, -0.3, 0.0, 0.6, 1.5):
                lift = eta(spec, float(np.tan(beta)), ts)
                reference = reference_eta_lift(spec, beta, ts)
                # the reference starts in (-pi, pi], eta at eta_w(0) = 0: whole turns apart
                turns = np.round((lift[0] - reference[0]) / TWO_PI)
                assert turns == 0 or ts[0] != 0.0
                assert np.max(np.abs(lift - reference - TWO_PI * turns)) <= 1e-12

    def test_whole_turns_are_exact(self):
        # eta_w(2*pi*m) = 2*pi*m, though the rounded product may land just short of a turn
        rng = np.random.default_rng(79)
        for _ in range(8):
            spec = random_admissible_spec(rng, 8)
            for w in np.tan(np.linspace(-1.5, 1.5, 13)):
                for t in (0.0, TWO_PI, -TWO_PI, 3 * TWO_PI, -1e-17):
                    assert eta(spec, float(w), t) == pytest.approx(t, abs=1e-12)

    def test_far_angle_is_closed_form(self, example_spec, trivial_spec):
        # t = 1e6 is about 1.6e5 turns, and eta reads it with one product
        start = time.perf_counter()
        far = eta(example_spec, 0.7, 1e6)
        assert time.perf_counter() - start < 1.0
        turns, tau = divmod(1e6, TWO_PI)
        assert far == pytest.approx(eta(example_spec, 0.7, tau) + TWO_PI * turns, abs=1e-9)
        turns = np.ceil(1e6 / TWO_PI)
        back = eta(example_spec, 0.7, -1e6 + TWO_PI * turns) - TWO_PI * turns
        assert eta(example_spec, 0.7, -1e6) == pytest.approx(back, abs=1e-9)
        assert eta(trivial_spec, 0.7, 1e6) == pytest.approx(1e6, abs=1e-9)


class TestTranslationLifts:
    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_right_lifts_match_reference_eta(self, name):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 1025)
        steps = stacked_steps(spec, SCAN_ANCHORS, ts)
        for beta, row in zip(SCAN_ANCHORS, steps):
            assert np.max(np.abs(row - np.diff(reference_eta_lift(spec, float(beta), ts)))) <= 1e-12

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    @pytest.mark.parametrize("translation", ["left", "right"])
    def test_steps_match_unwrapped_reference(self, name, translation):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 4097)
        steps = stacked_steps(spec, SCAN_ANCHORS, ts, translation)
        reference = reference_translation_steps(spec, SCAN_ANCHORS, ts, translation)
        assert np.max(np.abs(steps - reference)) <= 1e-12

    @pytest.mark.parametrize("name", SPEC_FILES)
    @pytest.mark.parametrize("translation", ["left", "right"])
    def test_rows_are_translations_shifted_by_anchor(self, name, translation):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 1025)
        anchors = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        steps = stacked_steps(spec, anchors, ts, translation)
        for a, row in zip(anchors, steps):
            if translation == "left":
                img = _mul_unchecked(spec, a, ts)
            else:
                img = _mul_unchecked(spec, ts, a)
            assert np.max(np.abs(row - np.diff(np.unwrap(img)))) < 1e-12
            # the steps carry the translation from its first image to every other
            walked = img[0] + np.concatenate(([0.0], np.cumsum(row)))
            assert np.max(circ_dist(walked, img)) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), max_k=st.sampled_from([1, 4, 16]))
    def test_admissible_steps_are_forward_with_unit_winding(self, seed, max_k):
        # random_admissible_spec shrinks until Q stays well above 0
        spec = random_admissible_spec(np.random.default_rng(seed), max_k)
        ts = np.linspace(0.0, TWO_PI, 4097)
        anchors = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        for translation in ("left", "right"):
            steps = stacked_steps(spec, anchors, ts, translation)
            assert steps.min() > 0.0
            assert np.max(np.abs(steps.sum(axis=-1) - TWO_PI)) < 1e-12


class TestLeastEtaSlope:
    """Suite `baer`'s closed form against the dense-beta reference scan, the
    transitivity quadratic and the admissibility polynomial."""

    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_matches_dense_beta_scan(self, name):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 4097)
        assert spec.f_inv(ts).min() > 0.0
        # 2048 transversals, scanned 128 at a time to keep the arrays small
        betas = np.array_split(np.linspace(0.0, np.pi, 2048, endpoint=False), 16)
        dense = min((translation_steps(spec, b, ts) / np.diff(ts)).min() for b in betas)
        _, details = baer_details(spec)
        assert abs(dense - details["eta-min-slope"][1]) <= 1e-4

    @pytest.mark.parametrize("grid_n", [64, 4096])
    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_sign_is_the_sign_of_q_min(self, name, grid_n):
        # baer reads the samples the verdict read, so on any grid its least
        # slope is positive exactly when the verdict's Q minimum is
        doc = load_spec_file(SPEC_DIR / name)
        spec = build_loop_spec(doc.weight, doc.g, grid_n=grid_n)
        res, details = baer_details(spec)
        assert res.cases_run == spec.report.grid_n
        assert (details["eta-min-slope"][1] > 0) == (spec.report.q_min > 0)

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    def test_sign_of_transitivity_quadratic_minimum(self, name):
        spec = spec_from_file(name)
        n, _, _, slope = least_slope_on_grid(spec)
        ts = np.arange(n) * (TWO_PI / n)
        # the quadratic a w^2 + b w + c from its values at w = -1, 0, 1; its
        # minimum over w is c - b^2/(4a) for a > 0, and unbounded below else
        c = transitivity_quadratic(spec, 0.0, ts)
        up, down = transitivity_quadratic(spec, 1.0, ts), transitivity_quadratic(spec, -1.0, ts)
        a, b = 0.5 * (up + down) - c, 0.5 * (up - down)
        lowest = np.where(a > 0.0, c - b * b / (4.0 * a), -np.inf)
        assert np.array_equal(np.sign(slope), np.sign(lowest))

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    def test_determinant_is_q_over_f_inv_squared(self, name):
        spec = spec_from_file(name)
        n, _, m, slope = least_slope_on_grid(spec)
        # the two eigenvalues add to the trace 2 + m and multiply to d
        d = slope * (2.0 + m - slope)
        q, _ = _q_on_grid(spec.f_inv, spec.g, n)
        series = spec.f_inv._admissibility(spec.g)
        size = abs(series.a0) + np.abs(series.cos).sum() + np.abs(series.sin).sum()
        assert np.max(np.abs(d * spec.f_inv._on_grid(n) ** 2 - q)) <= 1e-12 * size

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 2, 4, 8]),
        f_min=st.sampled_from([0.05, 0.5]),
        g_max=st.sampled_from([0.0, 1.0, 1e3]),
    )
    def test_reference_rows_wind_once_where_f_inv_positive(self, seed, k, f_min, g_max):
        # beta -> eta_beta is a homotopy from eta_0(t) = t through maps whose
        # coset columns A (cos beta, sin beta) never vanish, det A = 1; so where
        # F > 0 every eta_beta has degree one, whether or not it is monotone
        spec = shaped_spec(np.random.default_rng(seed), k, f_min, g_max)
        ts = np.linspace(0.0, TWO_PI, 4097)
        assert spec.f_inv(ts).min() > 0.0
        steps = translation_steps(spec, np.linspace(0.0, np.pi, 16, endpoint=False), ts)
        assert np.max(np.abs(steps.sum(axis=-1) - TWO_PI)) <= 1e-9


OPERATIONS = {
    "mul": mul,
    "ldiv": ldiv,
    "rdiv": rdiv,
    "eta": eta,
    # eta along an array of angles: its lift there, anchored at eta_w(0) = 0
    "eta_lift": lambda spec, w, t: eta(spec, w, np.array([0.0, t, 1.0]))[1],
    "section": lambda spec, t: section(spec, t).matrix,
}


class TestOperationGate:
    """One gate: a valid spec, and NaN wherever an argument is not finite, with no warning."""

    @pytest.mark.parametrize("op", sorted(OPERATIONS))
    @pytest.mark.parametrize("arg", [0.5, np.nan])
    def test_invalid_spec_rejected(self, op, arg):
        bad = build_loop_spec(FourierSeries(0.5))
        with pytest.raises(InvalidSpecError):
            OPERATIONS[op](bad, *([arg] if op == "section" else [arg, 0.7]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "op, position",
        [(op, i) for op in ("mul", "ldiv", "rdiv", "eta", "eta_lift") for i in (0, 1)]
        + [("section", 0)],
    )
    def test_gives_nan_silently(self, example_spec, op, position, bad):
        args = [0.5] if op == "section" else [0.5, 0.7]
        args[position] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = OPERATIONS[op](example_spec, *args)
        assert np.isnan(out).all()

    def test_lift_masks_only_the_bad_sample(self, example_spec):
        ts = np.array([0.0, 0.5, np.inf, 1.0])
        lift = eta(example_spec, 0.5, ts)
        assert np.isnan(lift[2]) and np.isfinite(lift[[0, 1, 3]]).all()
        assert lift[1] == eta(example_spec, 0.5, ts[:2])[1]


class TestEtaDerivativeExpr:
    def test_trivial_bracket(self, trivial_spec):
        for w in (-2.0, 0.0, 1.5):
            for t in (0.3, 1.0, 2.2):
                expected = (w * w + 1.0) ** 2 / np.cos(t) ** 2
                assert eta_derivative_expr(trivial_spec, w, t) == pytest.approx(expected, rel=1e-12)
                assert transitivity_quadratic(trivial_spec, w, t) == pytest.approx(w * w + 1.0)

    def test_w_zero_gives_fourth_power(self, example_spec):
        for t in (0.4, 2.0, 5.1):
            f4 = float(example_spec.f(t)) ** 4
            assert transitivity_quadratic(example_spec, 0.0, t) == pytest.approx(f4, rel=1e-12)

    def test_positive_for_admissible(self, example_spec, shear_spec):
        rng = np.random.default_rng(71)
        for spec in (example_spec, shear_spec):
            ws = np.concatenate([-np.logspace(-3, 3, 15), [0.0], np.logspace(-3, 3, 15)])
            ts = rng.uniform(0, TWO_PI, 50)
            for w in ws:
                assert np.all(transitivity_quadratic(spec, float(w), ts) > 0)

    def test_example_point_positive(self, example_spec):
        assert eta_derivative_expr(example_spec, 2.0, 1.0) > 0

    def test_pole_guard_stays_finite_and_positive(self, example_spec):
        val = eta_derivative_expr(example_spec, 1.0, np.pi / 2)
        assert np.isfinite(val)
        assert val > 0


class TestTransversalCheck:
    """The least eta slope as suite `baer` reads it, detail by detail."""

    def test_trivial_maximal_margins(self, trivial_spec):
        res, details = baer_details(trivial_spec)
        assert res.passed
        # eta_beta == identity, so every slope is exactly 1
        assert details["eta-min-slope"][1] == 1.0
        assert details["eta-monotonicity"][1] == 0.0

    def test_example_passes_full_grid(self, example_spec):
        res, details = baer_details(example_spec)
        assert res.passed
        assert details["eta-min-slope"][1] > 0

    def test_corrupted_detected_with_location(self, corrupted_spec):
        res, details = baer_details(corrupted_spec)
        (beta, t), slope = details["eta-min-slope"]
        assert not res.passed
        assert slope < 0
        assert details["eta-monotonicity"] == ((beta, t), -slope)
        assert 0.0 <= beta < np.pi
        assert 0.0 <= t <= TWO_PI
        # the violation is genuine: the quadratic goes negative there too
        w = float(np.tan(beta)) if abs(beta - np.pi / 2) > 1e-9 else 1e12
        ts = np.linspace(0, TWO_PI, 2049)
        assert np.min(transitivity_quadratic(corrupted_spec, w, ts)) < 0
