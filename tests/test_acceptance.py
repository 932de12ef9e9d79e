"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time

import numpy as np

from circleloop import (
    FourierSeries,
    build_loop_spec,
    check_isomorphism_pair,
    check_psl2_quotient,
    eta_derivative_expr,
    eta_lift,
    ldiv,
    mul,
    rdiv,
    reflect_spec,
    simpson_quadrature,
    solve_a0,
    subfunction_bound,
)
from circleloop.ops import baer_transversal_check

from conftest import circ_dist, random_admissible_spec, random_admissible_weight

TWO_PI = 2.0 * np.pi
SEED = 20260810


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def test_criterion_1_trivial_loop_is_circle_group(trivial_spec):
    start = time.perf_counter()
    angles = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    ss, tt = np.meshgrid(angles, angles, indexing="ij")
    err = float(np.max(circ_dist(mul(trivial_spec, ss, tt), (ss + tt) % TWO_PI)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "trivial spec multiplies as rotation addition on a 256x256 grid",
        err < 1e-12 and elapsed < 1.0,
        f"max error {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_vs_integral_form(example_spec):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    weights = [example_spec.weight] + [random_admissible_weight(rng) for _ in range(20)]
    ts = np.linspace(0.0, TWO_PI, 1024)
    worst = 0.0
    for w in weights:
        f_inv = build_loop_spec(w).f_inv
        integrand = lambda u: w(u) * np.exp(-u)
        # cumulative panel-wise quadrature keeps the oracle error well below
        # the tolerance even after the e^t amplification near 2*pi
        integral = 0.0
        worst = max(worst, abs(float(f_inv(0.0)) - 1.0))
        for lo, hi in zip(ts[:-1], ts[1:]):
            integral += simpson_quadrature(integrand, float(lo), float(hi), 8)
            closed = float(f_inv(float(hi)))
            worst = max(worst, abs(closed - float(np.exp(hi) * (1.0 - integral))))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "profile coefficients match the integral form on 21 specs x 1024-grid",
        worst < 1e-8 and elapsed < 5.0,
        f"max |closed - quadrature| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_weight_conditions(tmp_path, trivial_spec, example_spec, shear_spec):
    rng = np.random.default_rng(SEED + 1)
    worst_residual = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 6))
        cos, sin = tuple(rng.normal(size=k) * 0.3), tuple(rng.normal(size=k) * 0.3)
        w = FourierSeries(solve_a0(cos, sin), cos, sin)
        spec = build_loop_spec(w)
        worst_residual = max(worst_residual, spec.report.f0_residual)
    margins_ok = all(
        s.report.f_inv_min > 0 and s.report.integral_value > 0
        for s in (trivial_spec, example_spec, shear_spec)
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "r": {"a0": 0.5, "cos": [], "sin": []}}))
    proc = subprocess.run(
        [sys.executable, "-m", "circleloop.cli", "validate", str(bad)],
        capture_output=True,
        text=True,
    )
    rejected = proc.returncode == 2 and "weight-identity" in proc.stdout
    _report(
        3,
        "identity exact for solved constants, margins positive, a0=0.5 rejected with exit 2",
        worst_residual < 1e-12 and margins_ok and rejected,
        f"worst residual {worst_residual:.2e}, exit {proc.returncode}",
    )


def test_criterion_4_loop_axioms(trivial_spec, example_spec, shear_spec, even_spec):
    worst_round = worst_ident = 0.0
    slowest = 0.0
    angles = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    aa, bb = np.meshgrid(angles, angles, indexing="ij")
    for spec in (trivial_spec, example_spec, shear_spec, even_spec):
        start = time.perf_counter()
        prod = mul(spec, aa, bb)
        worst_round = max(worst_round, float(np.max(circ_dist(ldiv(spec, aa, prod), bb))))
        worst_round = max(worst_round, float(np.max(circ_dist(rdiv(spec, prod, bb), aa))))
        worst_ident = max(worst_ident, float(np.max(circ_dist(mul(spec, 0.0, angles), angles))))
        worst_ident = max(worst_ident, float(np.max(circ_dist(mul(spec, angles, 0.0), angles))))
        slowest = max(slowest, time.perf_counter() - start)
    _report(
        4,
        "division round trips < 1e-9 and identity laws < 1e-10 on 64x64 grids",
        worst_round < 1e-9 and worst_ident < 1e-10 and slowest < 10.0,
        f"round {worst_round:.2e}, identity {worst_ident:.2e}, slowest spec {slowest:.2f}s",
    )


def test_criterion_5_sharp_transitivity(
    trivial_spec, example_spec, shear_spec, even_spec, corrupted_spec
):
    ok = True
    worst_wind = worst_margin = None
    for spec in (trivial_spec, example_spec, shear_spec, even_spec):
        rep = baer_transversal_check(spec, 64, 4096)
        ok = ok and rep.passed and rep.worst_margin > 0 and rep.worst_winding_error < 1e-6
        worst_margin = min(rep.worst_margin, worst_margin or np.inf)
        worst_wind = max(rep.worst_winding_error, worst_wind or 0.0)
    bad = baer_transversal_check(corrupted_spec, 64, 4096)
    detected = (
        not bad.passed
        and bad.worst_margin < 0
        and np.isfinite(bad.worst_beta)
        and np.isfinite(bad.worst_t)
    )
    _report(
        5,
        "64 transversals strictly increasing with unit winding; corrupted spec located",
        ok and detected,
        f"min step {worst_margin:.2e}, winding err {worst_wind:.2e}, "
        f"violation {bad.worst_margin:.2e} at (beta={bad.worst_beta:.3f}, t={bad.worst_t:.3f})",
    )


def test_criterion_6_derivative_sign_equivalence(example_spec, shear_spec):
    rng = np.random.default_rng(SEED + 2)
    ts = np.linspace(0.0, TWO_PI, 4097)
    agree = total = 0
    for spec in (example_spec, shear_spec):
        for _ in range(60):
            w = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3))
            lift = eta_lift(spec, w, ts)
            slope = np.gradient(lift, ts)
            for i in rng.integers(2, 4095, size=90):
                t = float(ts[i])
                if abs(np.cos(t)) < 1e-3:
                    continue
                total += 1
                agree += int(
                    np.sign(eta_derivative_expr(spec, w, t)) == np.sign(slope[i])
                )
    _report(
        6,
        "derivative-expression sign matches finite-difference eta slope",
        total >= 10_000 and agree == total,
        f"{agree}/{total} samples agree",
    )


def test_criterion_7_reflection_and_isomorphism(
    trivial_spec, example_spec, shear_spec, even_spec
):
    fixtures = (trivial_spec, example_spec, shear_spec, even_spec)
    involution = all(
        (lambda b: b.f_inv == s.f_inv and b.g == s.g)(reflect_spec(reflect_spec(s)))
        for s in fixtures
    )
    preserved = all(reflect_spec(s).report.verdict == s.report.verdict for s in fixtures)
    triv = check_isomorphism_pair(trivial_spec, 64)
    evidence = []
    for name, spec in (("example", example_spec), ("shear", shear_spec), ("even", even_spec)):
        res = check_isomorphism_pair(spec, 64)
        evidence.append(f"{name}:{'pass' if res.passed else 'FAIL'}@{res.worst_violation:.1e}")
    _report(
        7,
        "double reflection is the identity, admissibility preserved, intertwiner verified",
        involution and preserved and triv.passed and triv.worst_violation < 1e-8,
        f"trivial intertwiner {triv.worst_violation:.2e}; " + ", ".join(evidence),
    )


def test_criterion_8_subfunction_bound(example_spec, shear_spec, even_spec):
    rng = np.random.default_rng(SEED + 3)
    specs = [example_spec, shear_spec, even_spec]
    specs += [random_admissible_spec(rng) for _ in range(20)]
    eps = 1e-5
    ok = True
    worst_slope = worst_end = 0.0
    for spec in specs:
        f_inv = spec.f_inv
        ok = ok and subfunction_bound(f_inv, 0.0) == 0.0
        slope = (subfunction_bound(f_inv, eps) - subfunction_bound(f_inv, -eps)) / (2 * eps)
        expected = 1.0 - float(f_inv.derivative_at(0.0)) ** 2
        worst_slope = max(worst_slope, abs(slope - expected))
        end = float(subfunction_bound(f_inv, TWO_PI))
        worst_end = min(worst_end, end)
        ok = ok and abs(slope - expected) < 1e-6 and end >= -1e-9
    _report(
        8,
        "h(0) = 0 exactly, h'(0) = 1 - f_inv'(0)^2 within 1e-6, h(2pi) >= -1e-9",
        ok,
        f"worst slope error {worst_slope:.2e}, min endpoint {worst_end:.2e}",
    )


def test_criterion_9_quotient_predicate(even_spec, example_spec):
    on_even = check_psl2_quotient(even_spec)
    on_example = check_psl2_quotient(example_spec)
    _report(
        9,
        "quotient-cover predicate true on even-harmonic fixture, false on example",
        on_even and not on_example,
        f"even={on_even}, example={on_example} (f_inv(pi)={float(example_spec.f_inv(np.pi)):.3f})",
    )
