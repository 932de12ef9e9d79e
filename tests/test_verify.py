import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

from circleloop import (
    FourierSeries,
    build_loop_spec,
    check_isomorphism_pair,
    mul,
    ops,
    oracle_crosscheck_suite,
    run_axiom_suite,
    run_baer_suite,
    run_suite,
    verify,
    weight_from_f_inv,
)
from circleloop.errors import UnknownSuiteError
from circleloop.specfile import SpecDocument, dump_spec_file
from circleloop.verify import DEFAULT_SEED, run_psl2_suite

from conftest import circ_dist, dense_admissible_spec, near_boundary_spec, random_admissible_spec

TWO_PI = 2.0 * np.pi


class TestAxiomSuite:
    def test_trivial(self, trivial_spec):
        res = run_axiom_suite(trivial_spec)
        assert res.passed
        assert res.worst_violation < 1e-12

    def test_example_and_shear(self, example_spec, shear_spec):
        for spec in (example_spec, shear_spec):
            res = run_axiom_suite(spec)
            assert res.passed, res.details

    def test_corrupted_fails_with_location(self, corrupted_spec):
        res = run_axiom_suite(corrupted_spec)
        assert not res.passed
        bad = [d for d in res.details if d[2] > 1e-9]
        assert bad
        names = {d[0] for d in bad}
        assert "rdiv-roundtrip" in names
        # every reported violation carries a concrete location
        assert all(d[1] is not None for d in bad)

    def test_right_translations_scanned_once(self, example_spec):
        # translations are not scanned here: a left one is the action of one
        # matrix, and suite baer decides every right one, eta_a shifted by a
        res = run_axiom_suite(example_spec)
        assert res.cases_run == 2 * 64 + 2 * 64 * 64
        assert [d[0] for d in res.details] == [
            "identity-left", "identity-right", "ldiv-roundtrip", "rdiv-roundtrip",
        ]

    def test_identity_checks_tight(self, example_spec):
        res = run_axiom_suite(example_spec)
        ident = [d for d in res.details if d[0].startswith("identity")]
        assert ident and all(v < 1e-10 for _, _, v in ident)


    def test_right_monotonicity_agrees_with_baer(self, corrupted_spec):
        # t -> t * a and eta_a differ by the constant a, so the slopes of the
        # right translations at the anchors pi j / 32 are slopes baer bounds
        # below: its least slope is at most theirs, and both are negative
        ts = np.linspace(0.0, TWO_PI, 4097)
        anchors = np.linspace(0.0, np.pi, 32, endpoint=False)[:, None]
        lifts = np.unwrap(ops._mul_unchecked(corrupted_spec, ts, anchors), axis=-1)
        slopes = np.diff(lifts, axis=-1) / np.diff(ts)
        baer = {d[0]: d for d in run_baer_suite(corrupted_spec).details}
        _, (beta, t), least = baer["eta-min-slope"]
        assert least - 1e-4 <= slopes.min() < 0.0
        assert 0.0 <= beta < np.pi and 0.0 <= t < TWO_PI


class TestBaerSuite:
    def test_example(self, example_spec):
        res = run_baer_suite(example_spec)
        assert res.passed
        assert res.worst_violation == 0.0  # every slope is forward

    def test_corrupted(self, corrupted_spec):
        res = run_baer_suite(corrupted_spec)
        assert not res.passed
        assert res.worst_violation > 1e-6

    @pytest.mark.parametrize("shear", [(), (5.0,)], ids=["example", "corrupted"])
    def test_reads_the_verdicts_grid(self, shear):
        # the example weight with no shear, and with the corrupted shear 5 sin t
        g = FourierSeries(0.0, (0.0,) * len(shear), shear)
        spec = build_loop_spec(FourierSeries(0.9, (0.2,), (0.0,)), g, grid_n=64)
        res = run_baer_suite(spec)
        assert spec.report.grid_n == 64
        assert res.cases_run == spec.report.grid_n
        assert res.passed == (not shear) == spec.report.verdict

    def test_near_boundary_spec_fails_at_q_min(self):
        # F = 1, so the least slope is min(1, Q) with Q = 1 + (1 + 1e-4) cos(64 t + phi),
        # whose minimum -1e-4 falls between the 64 betas of a sampled scan
        spec = near_boundary_spec(1e-4)
        res = run_baer_suite(spec)
        least = {d[0]: d[2] for d in res.details}["eta-min-slope"]
        assert not res.passed
        assert least == pytest.approx(-9.53e-5, abs=5e-8)
        assert least == pytest.approx(spec.report.q_min, abs=1e-12)

    def test_overflowing_weight_reads_as_its_scaled_down_copy(self):
        # weight a0 = cos_1 = 1e160: F = 1e160 (1 + cos t/2 - sin t/2), and with
        # g = 0 the slopes read only F'/F, as for a0 = cos_1 = 1, where
        # Q = (1 + cos t)(1 - sin t) is exactly 0 at pi/2 and pi
        results = []
        for scale in (1.0, 1e160):
            spec = build_loop_spec(FourierSeries(scale, (scale,), (0.0,)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run_baer_suite(spec)
            results.append((res.passed, {d[0]: d[2] for d in res.details}["eta-min-slope"]))
        (passed, least), (big_passed, big_least) = results
        assert big_passed == passed
        assert big_least == pytest.approx(least, abs=1e-12)

    def test_vanishing_profile_fails_closed(self):
        # F = 1 - cos t vanishes at t = 0, a grid angle: the slopes are NaN there
        spec = build_loop_spec(weight_from_f_inv(FourierSeries(1.0, (-1.0,), (0.0,))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_baer_suite(spec)
        assert not res.passed
        assert res.worst_violation == np.inf


class TestIsomorphismPair:
    def test_trivial(self, trivial_spec):
        res = check_isomorphism_pair(trivial_spec)
        assert res.passed
        assert res.worst_violation < 1e-12

    def test_example_and_shear(self, example_spec, shear_spec, even_spec):
        for spec in (example_spec, shear_spec, even_spec):
            res = check_isomorphism_pair(spec)
            assert res.passed, res.details
            assert res.worst_violation < 1e-8

    def test_identity_intertwiner_sanity_floor(self, shear_spec):
        # the same spec against itself under the identity map is exact
        angles = np.linspace(0, TWO_PI, 16, endpoint=False)
        ss, tt = np.meshgrid(angles, angles)
        first = mul(shear_spec, ss, tt)
        second = mul(shear_spec, ss, tt)
        assert np.max(circ_dist(first, second)) == 0.0


class TestPsl2Quotient:
    def test_trivial_is_quotient_cover(self, trivial_spec):
        assert run_psl2_suite(trivial_spec).passed

    def test_example_is_not(self, example_spec):
        # f_inv(pi) = 0.8, far from 1
        res = run_psl2_suite(example_spec)
        assert not res.passed
        assert res.worst_violation == pytest.approx(0.2, abs=1e-12)

    def test_even_harmonic_fixture_is(self, even_spec):
        assert even_spec.report.verdict
        assert run_psl2_suite(even_spec).passed

    @pytest.mark.parametrize(
        "f_inv, g",
        [
            (FourierSeries(1.0, (0.0,), (0.2,)), FourierSeries(0.0)),
            (FourierSeries(1.0), FourierSeries(0.0, (0.0,), (0.1,))),
        ],
        ids=["f_inv-odd", "g-odd"],
    )
    def test_odd_harmonic_fails_though_pi_is_fixed(self, f_inv, g):
        # F(pi) = 1 and g(pi) = 0 hold, so sigma(pi) = -I, yet the loop is
        # no double cover: (s + pi) * t and s * t + pi differ
        spec = build_loop_spec(weight_from_f_inv(f_inv), g)
        assert spec.report.verdict
        res = run_psl2_suite(spec)
        assert not res.passed
        details = {name: value for name, _, value in res.details}
        assert details["f_inv(pi)-1"] < 1e-9 and details["g(pi)"] < 1e-9
        assert details["odd-harmonics"] == pytest.approx(max(f_inv.sin + g.sin), abs=1e-15)
        assert descent_defect(spec) > 0.01

    def test_passing_specs_descend_to_the_quotient(self, trivial_spec, even_spec):
        # the identity the predicate stands for: (s + pi) * t = s * t + pi
        for spec in (trivial_spec, even_spec):
            assert run_psl2_suite(spec).passed
            assert descent_defect(spec) <= 1e-12


def descent_defect(spec) -> float:
    """Largest |(s + pi) * t - (s * t + pi)| on a 32 x 32 grid, as circular distance."""
    angles = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    ss, tt = np.meshgrid(angles, angles)
    return float(np.max(circ_dist(mul(spec, ss + np.pi, tt), mul(spec, ss, tt) + np.pi)))


class TestOracleSuite:
    def test_trivial_machine_precision(self, trivial_spec):
        res = oracle_crosscheck_suite(trivial_spec)
        assert res.passed
        # the e^t amplification of summation roundoff caps attainable
        # agreement near t = 2*pi at about e^{2pi} * eps
        assert res.worst_violation < 1e-10

    def test_fixtures(self, example_spec, shear_spec):
        for spec in (example_spec, shear_spec):
            res = oracle_crosscheck_suite(spec)
            assert res.passed
            assert res.worst_violation < 1e-8

    def test_seed_recorded_and_deterministic(self, example_spec):
        a = oracle_crosscheck_suite(example_spec, seed=123)
        b = oracle_crosscheck_suite(example_spec, seed=123)
        assert a.seed == 123
        assert a == b

    def test_fifty_random_admissible_specs(self):
        rng = np.random.default_rng(DEFAULT_SEED)
        for _ in range(50):
            spec = random_admissible_spec(rng)
            res = oracle_crosscheck_suite(spec)
            assert res.passed, (spec.weight, res.worst_violation)


    @pytest.mark.parametrize("k", [128, 256])
    def test_dense_large_k_passes(self, k, tmp_path):
        # 1024-interval Simpson rules read these admissible specs as failing,
        # at 2.7e-8 (K = 128) and 2.4e-7 (K = 256) against the 1e-8 tolerance
        spec = dense_admissible_spec(0, k)
        res = oracle_crosscheck_suite(spec)
        assert res.passed, res.details[0]
        assert res.worst_violation < 1e-10
        path = tmp_path / "dense.json"
        dump_spec_file(SpecDocument(spec.weight, spec.g), path)
        out = subprocess.run(
            [sys.executable, "-m", "circleloop.cli", "check", str(path), "--suite", "oracle"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "PASS oracle" in out.stdout

    @pytest.mark.parametrize("name", ["f_inv-closed-vs-integral", "subfunction-bound"])
    def test_wrong_closed_form_fails_on_top(self, example_spec, monkeypatch, name):
        spec = example_spec
        if name == "f_inv-closed-vs-integral":
            f_inv = spec.f_inv
            spec = dataclasses.replace(
                spec, f_inv=FourierSeries(f_inv.a0 + 1e-7, f_inv.cos, f_inv.sin)
            )
        else:
            closed = verify.subfunction_bound
            monkeypatch.setattr(verify, "subfunction_bound", lambda f, t: closed(f, t) + 1e-7)
        res = oracle_crosscheck_suite(spec)
        assert not res.passed
        assert res.details[0][0] == name
        assert res.worst_violation == pytest.approx(1e-7, rel=1e-3)

    def test_weight_profile_mismatch_fails_profile_detail(self, example_spec):
        # the profile read against a weight offset by 1e-7: the weighted
        # integral moves by 1e-7 (1 - e^-t), the profile gap by 1e-7 (e^t - 1)
        w = example_spec.weight
        spec = dataclasses.replace(example_spec, weight=FourierSeries(w.a0 + 1e-7, w.cos, w.sin))
        res = oracle_crosscheck_suite(spec)
        assert not res.passed
        assert res.details[0][0] == "f_inv-closed-vs-integral"
        assert res.worst_violation == pytest.approx(1e-7 * np.expm1(res.details[0][1]), rel=1e-3)


class TestRunSuite:
    def test_all_runs_every_suite(self, trivial_spec):
        results = run_suite(trivial_spec, "all")
        assert [r.suite_name for r in results] == [
            "axioms", "baer", "isomorphism", "oracle", "psl2",
        ]
        assert all(r.passed for r in results)

    def test_single_suite(self, example_spec):
        (res,) = run_suite(example_spec, "oracle", seed=7)
        assert res.suite_name == "oracle"
        assert res.seed == 7

    def test_unknown_suite(self, example_spec):
        with pytest.raises(UnknownSuiteError):
            run_suite(example_spec, "nonsense")

    def test_suite_independence(self, even_spec):
        # the axiom suite passes on any verdict-true spec regardless of
        # whether other predicates (like the quotient condition) hold
        spec = build_loop_spec(FourierSeries(0.9, (0.2,), (0.0,)))
        assert not run_psl2_suite(spec).passed
        assert run_axiom_suite(spec).passed
        assert run_psl2_suite(even_spec).passed
        assert run_axiom_suite(even_spec).passed
