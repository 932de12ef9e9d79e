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
    angle_of,
    baer_transversal_check,
    build_loop_spec,
    eta,
    eta_derivative_expr,
    eta_lift,
    kh_decompose,
    ldiv,
    mul,
    rdiv,
    rot,
    section,
    solve_a0,
    solve_g_const,
    transitivity_quadratic,
    upper,
)
from circleloop import ops
from circleloop.errors import InvalidGridError, InvalidSpecError, RootNotBracketedError
from circleloop.ops import (
    _coset_angle,
    _ldiv_unchecked,
    _mul_unchecked,
    _rdiv_unchecked,
    _translation_steps,
    _worst_step,
)
from circleloop.specfile import load_spec_file
from circleloop.verify import run_axiom_suite

from conftest import circ_dist, random_admissible_spec

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


def reference_translation_steps(spec, anchors, ts, side: str):
    """Reference forward steps: each translation's coset angles along ts, unwrapped, then differenced."""
    anchors = np.asarray(anchors, dtype=float)[:, None]
    if side == "left":
        u, x, y = anchors, 0.0, ts
    else:
        u, x, y = ts, ts - anchors, anchors
    fh = spec.f_inv(u)
    return np.diff(np.unwrap(_coset_angle(1.0 / fh, spec.g(u), fh, x, y), axis=-1), axis=-1)


def stacked_steps(spec, anchors, ts, side: str) -> np.ndarray:
    """The row blocks of `_translation_steps`, stacked into one matrix."""
    return np.vstack(list(_translation_steps(spec, anchors, ts, side)))


def one_shot_worst_step(steps):
    """`_worst_step` as one reduction of the whole stacked matrix."""
    row, col = np.unravel_index(int(steps.argmin()), steps.shape)
    winding = np.abs(steps.sum(axis=-1) - TWO_PI)
    w = int(winding.argmax())
    return float(steps[row, col]), int(row), int(col), float(winding[w]), w


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
        from circleloop.sl2 import det

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

    def test_left_translation_monotone_degree_one(self, shear_spec):
        ts = np.linspace(0.0, TWO_PI, 4097)
        for a in (0.0, 1.1, 3.9, 5.6):
            lift = np.unwrap(mul(shear_spec, a, ts))
            steps = np.diff(lift)
            assert steps.min() > 0
            assert lift[-1] - lift[0] == pytest.approx(TWO_PI, abs=1e-9)

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

        monkeypatch.setattr(ops, "_mul_unchecked", lambda spec, s, t: np.full(np.shape(s), np.nan))
        with pytest.raises(RootNotBracketedError):
            _rdiv_unchecked(example_spec, 2.0, 1.0)

    def test_invalid_spec_rejected(self):
        bad = build_loop_spec(FourierSeries(0.5))
        with pytest.raises(InvalidSpecError):
            ldiv(bad, 1.0, 2.0)
        with pytest.raises(InvalidSpecError):
            rdiv(bad, 2.0, 1.0)


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
        lift = eta_lift(example_spec, 2.5, ts)
        assert abs(lift[0]) < 1e-12
        assert np.max(np.abs(np.diff(lift))) < 0.05  # no branch jumps
        assert lift[-1] - lift[0] == pytest.approx(TWO_PI, abs=1e-9)

    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_lift_matches_reference_eta(self, name):
        spec = spec_from_file(name)
        if not spec.verdict:
            with pytest.raises(InvalidSpecError):
                eta_lift(spec, 0.7, np.zeros(2))
            return
        for ts in (np.linspace(0.0, TWO_PI, 1025), np.linspace(-3.0, 20.0, 8193)):
            for beta in (-1.2, -0.3, 0.0, 0.6, 1.5):
                lift = eta_lift(spec, float(np.tan(beta)), ts)
                assert np.max(np.abs(lift - reference_eta_lift(spec, beta, ts))) <= 1e-12

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
        steps = stacked_steps(spec, SCAN_ANCHORS, ts, "right")
        for beta, row in zip(SCAN_ANCHORS, steps):
            assert np.max(np.abs(row - np.diff(reference_eta_lift(spec, float(beta), ts)))) <= 1e-12

    @pytest.mark.parametrize("name", SPEC_FILES + ["k64"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_steps_match_unwrapped_reference(self, name, side):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 4097)
        steps = stacked_steps(spec, SCAN_ANCHORS, ts, side)
        reference = reference_translation_steps(spec, SCAN_ANCHORS, ts, side)
        assert np.max(np.abs(steps - reference)) <= 1e-12

    @pytest.mark.parametrize("name", SPEC_FILES)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_rows_are_translations_shifted_by_anchor(self, name, side):
        spec = spec_from_file(name)
        ts = np.linspace(0.0, TWO_PI, 1025)
        anchors = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        steps = stacked_steps(spec, anchors, ts, side)
        for a, row in zip(anchors, steps):
            img = _mul_unchecked(spec, a, ts) if side == "left" else _mul_unchecked(spec, ts, a)
            assert np.max(np.abs(row - np.diff(np.unwrap(img)))) < 1e-12
            # the steps carry the translation from its first image to every other
            walked = img[0] + np.concatenate(([0.0], np.cumsum(row)))
            assert np.max(circ_dist(walked, img)) < 1e-12

    def test_worst_step_locates_step_and_winding(self):
        # row 1 holds a wrapped step: its raw step 2*pi - 2 above pi read as -2;
        # row 3 repeats it, and ties go to the first row
        steps = np.array([
            [1.0, 2.0, TWO_PI - 3.0],
            [2.0, -2.0, 2.0],
            [3.0, -0.5, TWO_PI - 2.4],
            [2.0, -2.0, 2.0],
        ])
        step, row, col, wind, wind_row = _worst_step([steps])
        assert (step, row, col) == (-2.0, 1, 1)
        assert wind == pytest.approx(TWO_PI - 2.0, abs=1e-12) and wind_row == 1
        step, row, col, wind, wind_row = _worst_step([steps[[0, 2]]])
        assert (step, row, col) == (-0.5, 1, 1)
        assert wind == pytest.approx(0.1, abs=1e-12) and wind_row == 1

    def test_worst_step_merges_blocks_in_row_order(self):
        steps = np.array([
            [1.0, 2.0, TWO_PI - 3.0],
            [2.0, -2.0, 2.0],
            [-2.0, 3.0, TWO_PI - 3.0],
            [1.0, np.nan, 1.0],
        ])
        # the minimum tied across the block boundary: the first row wins
        assert _worst_step([steps[:2], steps[2:3]])[:3] == (-2.0, 1, 1)
        assert _worst_step([steps[:1], steps[1:3]])[3:] == (pytest.approx(TWO_PI - 2.0), 1)
        # a NaN step in a later block wins, as one argmin over the stack reads it
        step, row, col, wind, wind_row = _worst_step([steps[:2], steps[2:]])
        assert np.isnan(step) and (row, col) == (3, 1)
        assert np.isnan(wind) and wind_row == 3

    @pytest.mark.parametrize("count", [1, 5, 13, 64, 100])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_blocked_worst_step_equals_one_shot(self, corrupted_spec, example_spec, side, count):
        ts = np.linspace(0.0, TWO_PI, 4097)
        anchors = np.linspace(0.0, TWO_PI, count, endpoint=False)
        for spec in (corrupted_spec, example_spec):
            blocked = _worst_step(_translation_steps(spec, anchors, ts, side))
            assert blocked == one_shot_worst_step(stacked_steps(spec, anchors, ts, side))

    def test_tie_across_scan_blocks_goes_to_first_row(self, corrupted_spec):
        # the worst anchor twice, in the last row of one block and the first of the next
        ts = np.linspace(0.0, TWO_PI, 4097)
        anchors = np.linspace(0.0, np.pi, 64, endpoint=False)
        worst = anchors[_worst_step(_translation_steps(corrupted_spec, anchors, ts, "right"))[1]]
        rows = ops._SCAN_ROWS
        tied = np.concatenate([np.full(rows - 1, 0.1), [worst, worst], np.full(rows, 0.1)])
        step, row, col, _, _ = _worst_step(_translation_steps(corrupted_spec, tied, ts, "right"))
        assert step < 0.0 and row == rows - 1
        assert one_shot_worst_step(stacked_steps(corrupted_spec, tied, ts, "right"))[:3] == (step, row, col)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), max_k=st.sampled_from([1, 4, 16]))
    def test_admissible_steps_are_forward_with_unit_winding(self, seed, max_k):
        # random_admissible_spec shrinks until Q stays well above 0
        spec = random_admissible_spec(np.random.default_rng(seed), max_k)
        ts = np.linspace(0.0, TWO_PI, 4097)
        anchors = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        for side in ("left", "right"):
            steps = stacked_steps(spec, anchors, ts, side)
            assert steps.min() > 0.0
            assert np.max(np.abs(steps.sum(axis=-1) - TWO_PI)) < 1e-12


OPERATIONS = {
    "mul": mul,
    "ldiv": ldiv,
    "rdiv": rdiv,
    "eta": eta,
    "eta_lift": lambda spec, w, t: eta_lift(spec, w, np.array([0.0, t, 1.0]))[1],
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
        lift = eta_lift(example_spec, 0.5, ts)
        assert np.isnan(lift[2]) and np.isfinite(lift[[0, 1, 3]]).all()
        assert lift[1] == eta_lift(example_spec, 0.5, ts[:2])[1]


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
    def test_trivial_maximal_margins(self, trivial_spec):
        rep = baer_transversal_check(trivial_spec, 16, 1024)
        assert rep.passed
        # eta_beta == identity, so every forward step is exactly the grid step
        assert rep.worst_margin == pytest.approx(TWO_PI / 1024, abs=1e-12)
        assert rep.worst_winding_error < 1e-12

    def test_example_passes_full_grid(self, example_spec):
        rep = baer_transversal_check(example_spec, 64, 4096)
        assert rep.passed
        assert rep.worst_margin > 0
        assert rep.worst_winding_error < 1e-6

    def test_corrupted_detected_with_location(self, corrupted_spec):
        rep = baer_transversal_check(corrupted_spec, 64, 4096)
        assert not rep.passed
        assert rep.worst_margin < 0
        assert 0.0 <= rep.worst_beta < np.pi
        assert 0.0 <= rep.worst_t <= TWO_PI
        # the violation is genuine: the quadratic goes negative there too
        w = float(np.tan(rep.worst_beta)) if abs(rep.worst_beta - np.pi / 2) > 1e-9 else 1e12
        ts = np.linspace(0, TWO_PI, 2049)
        assert np.min(transitivity_quadratic(corrupted_spec, w, ts)) < 0

    def test_one_step_per_turn_fails(self, example_spec, trivial_spec):
        # a single step of 2*pi reads as about 0, so the winding is lost
        for spec in (example_spec, trivial_spec):
            rep = baer_transversal_check(spec, 4, 1)
            assert not rep.passed
            assert rep.worst_winding_error == pytest.approx(TWO_PI, abs=1e-9)

    @pytest.mark.parametrize(
        "scan, name",
        [
            (lambda spec: baer_transversal_check(spec, 0, 4096), "beta_grid"),
            (lambda spec: baer_transversal_check(spec, 64, 0), "t_grid"),
            (lambda spec: baer_transversal_check(spec, -3, 4096), "beta_grid"),
            (lambda spec: run_axiom_suite(spec, 0), "grid_n"),
        ],
    )
    def test_empty_grid_is_invalid(self, example_spec, scan, name):
        with pytest.raises(InvalidGridError, match=name):
            scan(example_spec)
