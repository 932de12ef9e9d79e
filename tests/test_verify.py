import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from circleloop import (
    FourierSeries,
    build_loop_spec,
    check_isomorphism_pair,
    check_psl2_quotient,
    mul,
    oracle_crosscheck_suite,
    run_axiom_suite,
    run_baer_suite,
    run_suite,
    verify,
)
from circleloop.errors import InvalidGridError, UnknownSuiteError
from circleloop.specfile import SpecDocument, dump_spec_file
from circleloop.verify import DEFAULT_SEED, run_psl2_suite

from conftest import circ_dist, dense_admissible_spec, random_admissible_spec

TWO_PI = 2.0 * np.pi


class TestAxiomSuite:
    def test_trivial(self, trivial_spec):
        res = run_axiom_suite(trivial_spec, 32)
        assert res.passed
        assert res.worst_violation < 1e-12

    def test_example_and_shear(self, example_spec, shear_spec):
        for spec in (example_spec, shear_spec):
            res = run_axiom_suite(spec, 32)
            assert res.passed, res.details

    def test_corrupted_fails_with_location(self, corrupted_spec):
        res = run_axiom_suite(corrupted_spec, 32)
        assert not res.passed
        bad = [d for d in res.details if d[2] > 1e-9]
        assert bad
        names = {d[0] for d in bad}
        assert names & {"rdiv-roundtrip", "right-translation-monotonicity"}
        # every reported violation carries a concrete location
        assert all(d[1] is not None for d in bad)

    def test_right_translations_scanned_once(self, example_spec):
        # 64 left anchors, but right anchors only in [0, pi): a + pi gives the same steps
        res = run_axiom_suite(example_spec, 64)
        assert res.cases_run == 2 * 64 + 2 * 64 * 64 + (64 + 32) * 4096

    def test_identity_checks_tight(self, example_spec):
        res = run_axiom_suite(example_spec, 32)
        ident = [d for d in res.details if d[0].startswith("identity")]
        assert ident and all(v < 1e-10 for _, _, v in ident)


    def test_right_monotonicity_agrees_with_baer(self, corrupted_spec):
        # t -> t * a and eta_a differ by the constant a, and a and a + pi give
        # the same map, so both suites see the same worst backward step
        axioms = {d[0]: d for d in run_axiom_suite(corrupted_spec, 64).details}
        baer = {d[0]: d for d in run_baer_suite(corrupted_spec).details}
        _, (anchor, t_ax), violation = axioms["right-translation-monotonicity"]
        _, (beta, t_baer), step = baer["eta-min-step"]
        assert violation == pytest.approx(-step, abs=1e-12)
        assert t_ax == t_baer
        assert anchor % np.pi == pytest.approx(beta, abs=1e-12)


class TestBaerSuite:
    def test_example(self, example_spec):
        res = run_baer_suite(example_spec, 16, 1024)
        assert res.passed
        assert res.worst_violation < 1e-12  # only winding roundoff remains

    def test_corrupted(self, corrupted_spec):
        res = run_baer_suite(corrupted_spec, 16, 1024)
        assert not res.passed
        assert res.worst_violation > 1e-6


class TestIsomorphismPair:
    def test_trivial(self, trivial_spec):
        res = check_isomorphism_pair(trivial_spec, 32)
        assert res.passed
        assert res.worst_violation < 1e-12

    def test_example_and_shear(self, example_spec, shear_spec, even_spec):
        for spec in (example_spec, shear_spec, even_spec):
            res = check_isomorphism_pair(spec, 32)
            assert res.passed, res.details
            assert res.worst_violation < 1e-8

    @pytest.mark.parametrize("grid_n", [0, -2])
    def test_empty_grid_is_invalid(self, example_spec, grid_n):
        with pytest.raises(InvalidGridError, match="grid_n"):
            check_isomorphism_pair(example_spec, grid_n)

    def test_identity_intertwiner_sanity_floor(self, shear_spec):
        # the same spec against itself under the identity map is exact
        angles = np.linspace(0, TWO_PI, 16, endpoint=False)
        ss, tt = np.meshgrid(angles, angles)
        first = mul(shear_spec, ss, tt)
        second = mul(shear_spec, ss, tt)
        assert np.max(circ_dist(first, second)) == 0.0


class TestPsl2Quotient:
    def test_trivial_is_quotient_cover(self, trivial_spec):
        assert check_psl2_quotient(trivial_spec)

    def test_example_is_not(self, example_spec):
        # f_inv(pi) = 0.8, far from 1
        assert not check_psl2_quotient(example_spec)
        res = run_psl2_suite(example_spec)
        assert not res.passed
        assert res.worst_violation == pytest.approx(0.2, abs=1e-12)

    def test_even_harmonic_fixture_is(self, even_spec):
        assert even_spec.report.verdict
        assert check_psl2_quotient(even_spec)


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
            res = oracle_crosscheck_suite(spec, samples=8)
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

    @pytest.mark.parametrize(
        "name", ["f_inv-closed-vs-integral", "exp-weighted-integral", "subfunction-bound"]
    )
    def test_wrong_closed_form_fails_on_top(self, example_spec, monkeypatch, name):
        spec = example_spec
        if name == "f_inv-closed-vs-integral":
            f_inv = spec.f_inv
            spec = dataclasses.replace(
                spec, f_inv=FourierSeries(f_inv.a0 + 1e-7, f_inv.cos, f_inv.sin)
            )
        elif name == "exp-weighted-integral":
            closed = FourierSeries.exp_weighted_integral
            monkeypatch.setattr(
                FourierSeries, "exp_weighted_integral", lambda s, t: closed(s, t) + 1e-7
            )
        else:
            closed = verify.subfunction_bound
            monkeypatch.setattr(verify, "subfunction_bound", lambda f, t: closed(f, t) + 1e-7)
        res = oracle_crosscheck_suite(spec)
        assert not res.passed
        assert res.details[0][0] == name
        assert res.worst_violation == pytest.approx(1e-7, rel=1e-3)

    def test_negative_samples_are_invalid(self, example_spec):
        with pytest.raises(InvalidGridError, match="samples"):
            oracle_crosscheck_suite(example_spec, samples=-1)

    def test_no_samples_checks_the_fixed_angles(self, example_spec):
        res = oracle_crosscheck_suite(example_spec, samples=0)
        assert res.passed
        # t = 0 has only the bound's check; pi and 2*pi have all three
        assert res.cases_run == 7
        assert {t for _, t, _ in res.details} <= {0.0, np.pi, TWO_PI}


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
        assert not check_psl2_quotient(spec)
        assert run_axiom_suite(spec, 16).passed
        assert check_psl2_quotient(even_spec)
        assert run_axiom_suite(even_spec, 16).passed
