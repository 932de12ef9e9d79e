import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circleloop import FourierSeries, Tolerances, build_loop_spec, ops, run_suite
from circleloop.builder import _q_on_grid, subfunction_bound, uniform_grid
from circleloop.cli import _snap
from circleloop.specfile import SpecDocument, dump_spec_file, load_spec_file

from conftest import near_boundary_spec

TWO_PI = 2.0 * np.pi

SPECS = Path(__file__).resolve().parent.parent / "specs"
#: validate exit code and failure conditions of every spec in specs/
FIXTURE_VERDICTS = {
    "corrupted.json": (2, ["discriminant"]),
    "energy_probe.json": (0, []),  # 2 a0^2 (not 2 a0) in the energy bound admits it
    "even_psl2.json": (0, []),
    "example.json": (0, []),
    "example_shear.json": (0, []),
    "inadmissible.json": (2, ["weight-identity"]),
    "trivial.json": (0, []),
}

#: cases each suite runs in `run_suite(spec, "all")`, the same for every spec
SUITE_CASES = {"axioms": 8320, "baer": 4096, "isomorphism": 4096, "oracle": 101, "psl2": 3}
#: `passed` of each suite, in SUITE_CASES order, for every spec in specs/
FIXTURE_SUITES = {
    "corrupted.json": (False, False, False, True, False),
    "energy_probe.json": (True, True, True, True, True),
    "even_psl2.json": (True, True, True, True, True),
    "example.json": (True, True, True, True, False),
    "example_shear.json": (True, True, True, True, False),
    "inadmissible.json": (False, True, False, False, False),
    "trivial.json": (True, True, True, True, True),
}

#: the keys of the `validate` JSON line
REPORT_KEYS = {
    "verdict", "grid_n", "tolerances", "profile_min", "profile_argmin", "discriminant_max",
    "discriminant_argmax", "q_min", "q_argmin", "initial_slope_margin", "integral_value",
    "boundary_residuals", "failures",
}

TRIVIAL = {
    "schema_version": 1,
    "r": {"a0": 1.0, "cos": [], "sin": []},
    "g": {"const": 0.0, "cos": [], "sin": []},
}
EXAMPLE = {
    "schema_version": 1,
    "r": {"a0": 0.9, "cos": [0.2], "sin": [0.0]},
    "g": {"const": 0.0, "cos": [], "sin": []},
}
INADMISSIBLE = {
    "schema_version": 1,
    "r": {"a0": 0.5, "cos": [], "sin": []},
}
CORRUPTED = {
    "schema_version": 1,
    "r": {"a0": 0.9, "cos": [0.2], "sin": [0.0]},
    "g": {"const": 0.0, "cos": [0.0], "sin": [5.0]},
}


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _fixture_pair(name):
    doc = load_spec_file(SPECS / name)
    return doc.weight, doc.g


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "circleloop.cli", *args],
        capture_output=True,
        text=True,
    )


class TestValidate:
    def test_trivial_passes(self, tmp_path):
        res = run_cli("validate", write_spec(tmp_path, "t.json", TRIVIAL))
        assert res.returncode == 0
        assert "ADMISSIBLE" in res.stdout

    def test_inadmissible_exits_two(self, tmp_path):
        res = run_cli("validate", write_spec(tmp_path, "bad.json", INADMISSIBLE))
        assert res.returncode == 2
        assert "weight-identity" in res.stdout

    def test_report_header_records_settings(self, tmp_path):
        res = run_cli("--grid", "128", "validate", write_spec(tmp_path, "t.json", TRIVIAL))
        assert "grid_n=128" in res.stdout
        machine = json.loads(res.stdout.strip().splitlines()[-1])
        assert machine["grid_n"] == 128
        assert machine["verdict"] is True

    def test_tolerance_flag_overrides(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", INADMISSIBLE)
        res = run_cli("--tol-eq", "1.0", "validate", spec)
        machine = json.loads(res.stdout.strip().splitlines()[-1])
        assert machine["tolerances"]["tol_eq"] == 1.0
        # |F(0) - 1| = 0.5 is measured once, as the weight identity, and
        # tolerated; the profile and Q stay positive, so the spec is admitted
        assert res.returncode == 0
        assert machine["failures"] == []

    def test_report_keys(self, tmp_path):
        res = run_cli("validate", write_spec(tmp_path, "bad.json", INADMISSIBLE))
        machine = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(machine) == REPORT_KEYS
        assert set(machine["tolerances"]) == {"tol_eq", "delta_strict"}
        assert set(machine["failures"][0]) == {"condition", "where", "value"}

    def test_json_line_is_strict(self, tmp_path):
        # F = 0.3 + 0.7 cos t + 0.7 sin t reaches -0.4: the discriminant is
        # undefined there, and its maximum is null, not a bare NaN
        doc = {"schema_version": 1, "r": {"a0": 0.3, "cos": [0.7], "sin": [0.7]}}
        res = run_cli("validate", write_spec(tmp_path, "neg.json", doc))
        assert res.returncode == 2

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        machine = json.loads(res.stdout.strip().splitlines()[-1], parse_constant=reject)
        assert machine["discriminant_max"] is None
        # an undefined maximum has no angle: null, and no "at t=" in the text
        assert machine["discriminant_argmax"] is None
        assert "discriminant maximum     : nan\n" in res.stdout
        assert machine["q_min"] < 0.0

    def test_missing_file_exits_one(self):
        assert run_cli("validate", "/nonexistent/spec.json").returncode == 1

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", str(path)).returncode == 1

    def test_wrong_schema_version_exits_one(self, tmp_path):
        doc = dict(TRIVIAL, schema_version=2)
        assert run_cli("validate", write_spec(tmp_path, "v2.json", doc)).returncode == 1


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_fixture_verdicts(name):
    res = run_cli("validate", str(SPECS / name))
    machine = json.loads(res.stdout.strip().splitlines()[-1])
    conditions = [f["condition"] for f in machine["failures"]]
    assert (res.returncode, conditions) == FIXTURE_VERDICTS[name]


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_fixture_suites(name):
    # every suite, as `check --suite all --skip-validation` runs it, in process
    doc = load_spec_file(SPECS / name)
    spec = build_loop_spec(
        doc.weight, doc.g, grid_n=doc.grid_n or 4096, tolerances=doc.tolerances or Tolerances()
    )
    got = [(r.suite_name, r.passed, r.cases_run) for r in run_suite(spec, "all")]
    assert got == [
        (suite, passed, SUITE_CASES[suite])
        for suite, passed in zip(SUITE_CASES, FIXTURE_SUITES[name])
    ]


INADMISSIBLE_FILE = str(SPECS / "inadmissible.json")
EXAMPLE_FILE = str(SPECS / "example.json")


@pytest.mark.parametrize(
    "argv",
    [
        # --tol-root and the spec key tol_root are gone: naming them is a usage error
        ("--tol-root", "0", "validate", INADMISSIBLE_FILE),
        ("--tol-root", "-1e-12", "validate", INADMISSIBLE_FILE),
        ("--tol-eq", "nan", "validate", INADMISSIBLE_FILE),
        ("--tol-eq", "-1", "validate", INADMISSIBLE_FILE),
        ("--delta-strict", "inf", "validate", INADMISSIBLE_FILE),
        ("--grid", "0", "validate", INADMISSIBLE_FILE),
        ("--grid", "-5", "validate", INADMISSIBLE_FILE),
        ("rdiv", EXAMPLE_FILE, "nan", "1"),
        ("mul", EXAMPLE_FILE, "1", "inf"),
        ("--degrees", "ldiv", EXAMPLE_FILE, "-inf", "0"),
        ("check", EXAMPLE_FILE, "--seed", "-1"),
    ],
)
def test_bad_values_exit_one(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert any(line.startswith("error: ") for line in res.stderr.splitlines())
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "tolerances",
    [{"tol_root": 0}, {"tol_root": -1e-12}, {"tol_eq": -1e-10}, {"delta_strict": float("nan")}],
)
def test_bad_spec_file_tolerances_exit_one(tmp_path, tolerances):
    res = run_cli("validate", write_spec(tmp_path, "t.json", dict(TRIVIAL, tolerances=tolerances)))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


class TestAngleCommands:
    def test_mul_trivial(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        res = run_cli("mul", spec, "1.0", "2.0")
        assert res.returncode == 0
        assert res.stdout.strip() == "3.000000000000"

    def test_mul_wraparound(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        res = run_cli("mul", spec, "5.0", "2.0")
        assert res.stdout.strip() == f"{7.0 - TWO_PI:.12f}"

    def test_mul_example_matches_library(self, tmp_path, example_spec):
        from circleloop import mul as lib_mul

        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        res = run_cli("mul", spec, "1.0", "2.0")
        assert float(res.stdout.strip()) == pytest.approx(
            lib_mul(example_spec, 1.0, 2.0), abs=1e-11
        )

    def test_degrees_flag(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        res = run_cli("--degrees", "mul", spec, "90", "90")
        assert float(res.stdout.strip()) == pytest.approx(np.pi, abs=1e-11)

    def test_ldiv_rdiv(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        assert float(run_cli("ldiv", spec, "1.0", "2.0").stdout) == pytest.approx(1.0, abs=1e-10)
        assert float(run_cli("rdiv", spec, "2.0", "1.0").stdout) == pytest.approx(1.0, abs=1e-10)

    def test_inadmissible_spec_exits_two(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", INADMISSIBLE)
        assert run_cli("mul", spec, "1.0", "2.0").returncode == 2


class TestTable:
    def test_trivial_sums(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        out = tmp_path / "table.csv"
        res = run_cli("table", spec, "-n", "4", "-o", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,t,mul"
        assert len(lines) == 1 + 25
        for line in lines[1:]:
            s, t, p = map(float, line.split(","))
            assert 0.0 <= p < TWO_PI
            # compare on the circle: s + t can sit within rounding of 2*pi
            d = abs(p - (s + t) % TWO_PI) % TWO_PI
            assert min(d, TWO_PI - d) < 1e-10

    @pytest.mark.parametrize("name", ["example_shear.json", "even_psl2.json"])
    def test_csv_bytes_are_the_per_row_format(self, tmp_path, name):
        # the rows as a per-row f-string over the numpy grids writes them
        spec = build_loop_spec(*_fixture_pair(name))
        n = 6
        angles = TWO_PI * np.arange(n + 1) / (n + 1)
        ss, tt = np.meshgrid(angles, angles, indexing="ij")
        products = _snap(ops.mul(spec, ss, tt))
        rows = [f"{s:.12g},{t:.12g},{p:.12g}\n"
                for s, t, p in zip(ss.ravel(), tt.ravel(), products.ravel())]
        out = tmp_path / "table.csv"
        assert run_cli("table", str(SPECS / name), "-n", str(n), "-o", str(out)).returncode == 0
        assert out.read_bytes() == ("s,t,mul\n" + "".join(rows)).encode()

    def test_size_one_is_usage_error(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        out = tmp_path / "nope.csv"
        res = run_cli("table", spec, "-n", "1", "-o", str(out))
        assert res.returncode == 1
        assert not out.exists()


class TestPlotData:
    def test_trivial_columns(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        out = tmp_path / "plot.csv"
        res = run_cli("--grid", "64", "plot-data", spec, "-o", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,f,g,h,disc"
        assert len(lines) == 1 + 64
        for line in lines[1:]:
            t, f, g, h, disc = map(float, line.split(","))
            assert f == pytest.approx(1.0)
            assert g == 0.0
            assert h == pytest.approx(t, abs=1e-12)
            assert disc == pytest.approx(-1.0)

    def test_example_disc_strictly_negative(self, tmp_path):
        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        out = tmp_path / "plot.csv"
        run_cli("--grid", "256", "plot-data", spec, "-o", str(out))
        disc = [float(l.split(",")[4]) for l in out.read_text().splitlines()[1:]]
        assert max(disc) < 0

    @pytest.mark.parametrize(
        "name", sorted(name for name, (code, _) in FIXTURE_VERDICTS.items() if code == 0)
    )
    def test_columns_are_the_verdict_samples(self, tmp_path, name):
        # f and disc come from the grid samples the verdict read: their
        # maxima print as validate's 1/profile_min and discriminant_max
        res = run_cli("validate", str(SPECS / name))
        machine = json.loads(res.stdout.strip().splitlines()[-1])
        out = tmp_path / "plot.csv"
        assert run_cli("plot-data", str(SPECS / name), "-o", str(out)).returncode == 0
        lines = out.read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert len(rows) == machine["grid_n"]
        assert f"{rows[:, 4].max():.12g}" == f"{machine['discriminant_max']:.12g}"
        assert f"{rows[:, 1].max():.12g}" == f"{1.0 / machine['profile_min']:.12g}"

    @pytest.mark.parametrize("name", ["example_shear.json", "even_psl2.json"])
    def test_csv_bytes_are_the_per_row_format(self, tmp_path, name):
        # the rows as a per-row f-string over the numpy columns writes them
        n = 64
        spec = build_loop_spec(*_fixture_pair(name), grid_n=n)
        ts = uniform_grid(n)
        columns = (ts, 1.0 / spec.f_inv._on_grid(n), spec.g._on_grid(n),
                   subfunction_bound(spec.f_inv, ts, grid_n=n),
                   _q_on_grid(spec.f_inv, spec.g, n)[1])
        rows = [",".join(f"{v:.12g}" for v in row) + "\n" for row in zip(*columns)]
        out = tmp_path / "plot.csv"
        res = run_cli("--grid", str(n), "plot-data", str(SPECS / name), "-o", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == ("t,f,g,h,disc\n" + "".join(rows)).encode()

    def test_invalid_spec_writes_nothing(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", INADMISSIBLE)
        out = tmp_path / "never.csv"
        res = run_cli("plot-data", spec, "-o", str(out))
        assert res.returncode == 2
        assert not out.exists()


class TestCheck:
    def test_trivial_all(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        res = run_cli("check", spec, "--suite", "all")
        assert res.returncode == 0
        for name in ("axioms", "baer", "isomorphism", "oracle"):
            assert f"PASS {name}" in res.stdout

    def test_example_baer_prints_margin(self, tmp_path):
        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        res = run_cli("check", spec, "--suite", "baer")
        assert res.returncode == 0
        assert "min eta slope" in res.stdout

    def test_seed_is_recorded(self, tmp_path):
        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        res = run_cli("check", spec, "--suite", "oracle", "--seed", "99")
        assert res.returncode == 0
        assert "seed=99" in res.stdout

    def test_psl2_info_does_not_fail_all(self, tmp_path):
        # example spec is not a quotient cover; with --suite all that is
        # informational, not a failure
        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        res = run_cli("check", spec, "--suite", "all")
        assert res.returncode == 0
        assert "INFO psl2" in res.stdout

    def test_psl2_standalone_reflects_predicate(self, tmp_path):
        spec = write_spec(tmp_path, "e.json", EXAMPLE)
        assert run_cli("check", spec, "--suite", "psl2").returncode == 3
        triv = write_spec(tmp_path, "t.json", TRIVIAL)
        assert run_cli("check", triv, "--suite", "psl2").returncode == 0

    def test_corrupted_blocked_without_skip(self, tmp_path):
        spec = write_spec(tmp_path, "c.json", CORRUPTED)
        assert run_cli("check", spec, "--suite", "baer").returncode == 2

    def test_corrupted_detected_with_skip(self, tmp_path):
        spec = write_spec(tmp_path, "c.json", CORRUPTED)
        res = run_cli("check", spec, "--suite", "baer", "--skip-validation")
        assert res.returncode == 3
        assert "eta-monotonicity" in res.stdout
        res = run_cli("check", spec, "--suite", "axioms", "--skip-validation")
        assert res.returncode == 3

    def test_grid_flag_sets_the_baer_grid(self):
        # --grid sets the one grid both the verdict and suite baer read
        res = run_cli("--grid", "64", "check", "--skip-validation", "--suite", "baer",
                      str(SPECS / "corrupted.json"))
        assert res.returncode == 3
        assert "FAIL baer: cases=64 " in res.stdout

    def test_near_boundary_spec_fails_baer_with_skip(self, tmp_path):
        # Q = 1 + (1 + 1e-4) cos(64 t + pi/1024) dips to -1e-4 between sampled betas
        spec = near_boundary_spec(1e-4)
        path = tmp_path / "near.json"
        dump_spec_file(SpecDocument(spec.weight, spec.g), path)
        res = run_cli("check", str(path), "--suite", "baer", "--skip-validation")
        assert res.returncode == 3
        assert "min eta slope -9.529" in res.stdout

    @pytest.mark.parametrize(
        "weight",
        [
            {"a0": 0.3, "cos": [0.7], "sin": [0.7]},  # f_inv reaches -0.4
            {"a0": 1e160, "cos": [1e160], "sin": [0.0]},  # f_inv^2 overflows
        ],
    )
    def test_undefined_bound_fails_oracle_without_raising(self, tmp_path, weight):
        # the comparison bound h needs f_inv > 0 and a finite energy series;
        # where it is undefined the oracle's subfunction-bound detail reads inf
        spec = write_spec(tmp_path, "s.json", {"schema_version": 1, "r": weight})
        res = run_cli("check", "--skip-validation", spec)
        assert res.returncode == 3
        assert "FAIL oracle" in res.stdout
        assert "subfunction-bound at 0.0: inf" in res.stdout
        assert "Traceback" not in res.stderr

    def test_unknown_suite_exits_one(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", TRIVIAL)
        assert run_cli("check", spec, "--suite", "nonsense").returncode == 1


class TestSpecFileRoundtrip:
    def test_bit_exact(self, tmp_path):
        doc = SpecDocument(
            weight=FourierSeries(0.123456789012345678, (1 / 3, 0.1), (-2 / 7, 1e-17)),
            g=FourierSeries(-1 / 9, (2 / 3,), (0.7,)),
            grid_n=512,
        )
        path = tmp_path / "spec.json"
        dump_spec_file(doc, path)
        back = load_spec_file(path)
        assert back.weight == doc.weight  # float equality, i.e. bit-for-bit
        assert back.g == doc.g
        assert back.grid_n == 512

    def test_schema_rejections(self, tmp_path):
        from circleloop.errors import SpecFileError

        bad_docs = [
            {"schema_version": 1},  # missing r
            {"schema_version": 1, "r": {"a0": 1.0, "cos": [0.1], "sin": []}},  # length
            {"schema_version": 1, "r": {"a0": "x", "cos": [], "sin": []}},  # type
            {"schema_version": 1, "r": {"a0": 1.0}, "grid_n": 2},  # grid too small
            {"schema_version": 1, "r": {"a0": 1.0}, "extra": 1},  # unknown key
            {"schema_version": 1, "r": {"a0": 1.0}, "tolerances": {"tol_det": 1e-9}},  # no such knob
            {"schema_version": 1, "r": {"a0": 10**400}},  # beyond the float range
            {"schema_version": 1, "r": {"a0": 1.0, "cos": [10**400], "sin": [0.0]}},
        ]
        from circleloop.specfile import parse_spec_document

        for doc in bad_docs:
            with pytest.raises(SpecFileError):
                parse_spec_document(doc)

    def test_tolerances_roundtrip(self, tmp_path):
        from circleloop import Tolerances

        doc = SpecDocument(
            weight=FourierSeries(1.0),
            g=FourierSeries(0.0),
            tolerances=Tolerances(tol_eq=1e-9),
        )
        path = tmp_path / "tol.json"
        dump_spec_file(doc, path)
        assert load_spec_file(path).tolerances == Tolerances(tol_eq=1e-9)
