"""Time the loop operations and the pair-grid suites: the L2 and L3 rows of BENCH_*.json.

    PYTHONPATH=src python3 tools/bench_l2.py [--runs 5] LABEL=SRC [LABEL=SRC ...]

    e.g. PYTHONPATH=src python3 tools/bench_l2.py parent=../parent/src change=src

Run it from the root of a checkout: the L3 cases read specs/*.json.  Each
SRC is a `src` directory holding a `circleloop` package.  A run is one
fresh process per SRC, with that SRC on PYTHONPATH, which times every case
once after one untimed call; within a round the SRCs run back to back, and
their order alternates between rounds, so drift in machine load hits every
SRC alike.  Each row is the best of --runs runs per SRC.

L2 cases use `bench_l1.dense_pair` at K in {1, 8, 64, 256} and angles
uniform on [0, 2*pi): `ops.mul` at 1e6 points, `ops.ldiv` at 1e5, `ops.rdiv`
at 1e4 and on the 64 x 64 pair grid of suite `axioms` (the grid's products
divided by their right factors), and one scalar round, mul then ldiv and
rdiv of its product as in the compute benchmark, timed as the mean of 200
rounds.  L3 cases: suites `axioms` and `isomorphism` on the five admissible
fixtures.  Prints one JSON object: the host and the rows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from bench_l1 import SEED, dense_pair, host
from circleloop import build_loop_spec, ops, verify
from circleloop.specfile import load_spec_file

KS = (1, 8, 64, 256)
POINTS = {"mul": 1_000_000, "ldiv": 100_000, "rdiv": 10_000}
ROUNDS = 200
PAIR_GRID = 64
FIXTURES = ("trivial", "example", "example_shear", "even_psl2", "energy_probe")


def _seconds(call, repeat: int = 1) -> float:
    call()
    start = time.perf_counter()
    for _ in range(repeat):
        call()
    return (time.perf_counter() - start) / repeat


def measure() -> dict:
    """Seconds per case for the circleloop on sys.path, each timed once: {case key: seconds}."""
    out = {}
    grid = np.linspace(0.0, 2.0 * np.pi, PAIR_GRID, endpoint=False)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    for k in KS:
        spec = build_loop_spec(*dense_pair(k))
        rng = np.random.default_rng([SEED, k])
        for op, n in POINTS.items():
            a, b = rng.uniform(0.0, 2.0 * np.pi, (2, n))
            out[f"L2|{op}|{k}|{n}"] = _seconds(lambda: getattr(ops, op)(spec, a, b))
        products = ops.mul(spec, aa, bb)
        out[f"L2|rdiv, pair grid|{k}|{PAIR_GRID**2}"] = _seconds(lambda: ops.rdiv(spec, products, bb))
        a, b = (float(x) for x in rng.uniform(0.0, 2.0 * np.pi, 2))

        def scalar_round():
            p = ops.mul(spec, a, b)
            return ops.ldiv(spec, a, p), ops.rdiv(spec, p, b)

        out[f"L2|scalar round|{k}|1"] = _seconds(scalar_round, ROUNDS)
    for name in FIXTURES:
        doc = load_spec_file(os.path.join("specs", f"{name}.json"))
        spec = build_loop_spec(doc.weight, doc.g)
        out[f"L3|axioms|{name}"] = _seconds(lambda: verify.run_axiom_suite(spec))
        out[f"L3|isomorphism|{name}"] = _seconds(lambda: verify.check_isomorphism_pair(spec))
    return out


def _measure_in(src: str) -> dict:
    tools = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.abspath(src), tools)))
    code = "import json, bench_l2; print(json.dumps(bench_l2.measure()))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(res.stdout)


def _row(key: str, best: dict) -> dict:
    layer, case, *rest = key.split("|")
    if layer == "L2":
        k, points = rest
        row = {"layer": layer, "case": case, "spec": f"dense seed {SEED}", "K": int(k),
               "points": int(points)}
        if case == "scalar round":
            row["rounds_per_run"] = ROUNDS
    else:
        row = {"layer": layer, "case": f"suite {case}", "spec": f"specs/{rest[0]}.json"}
    row.update({f"{label}_best_ms": round(1e3 * t, 4) for label, t in best.items()})
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("srcs", nargs="+", metavar="LABEL=SRC")
    args = parser.parse_args()
    srcs = [spec.split("=", 1) for spec in args.srcs]
    best: dict[str, dict[str, float]] = {}
    for run in range(args.runs):
        for label, src in srcs if run % 2 == 0 else srcs[::-1]:
            for key, seconds in _measure_in(src).items():
                row = best.setdefault(key, {})
                row[label] = min(row.get(label, float("inf")), seconds)
    rows = [dict(_row(key, times), runs=args.runs) for key, times in best.items()]
    print(json.dumps({"host": host(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
