"""Time `build_loop_spec` on seeded dense specs, warm and cold: the L1 rows of BENCH_*.json.

    PYTHONPATH=src python3 tools/bench_l1.py [--runs 7] [--builds 100]

Each spec has K harmonics in the weight and in the shear, coefficients
decaying like 1/k^2, and is admissible.  A warm build reads the same
series objects again, so the profile, Q and their grids come from the
series' caches, as in the certify benchmark; a cold build reads fresh
series objects, made outside the timed region, so all of them are rebuilt.
A run is the mean over --builds builds; each row is the best of --runs
runs.  Prints one JSON object: the host and the rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from circleloop import FourierSeries, build_loop_spec, solve_g_const

KS = (1, 2, 8, 64, 256)
SEED = 1


def dense_pair(k: int, seed: int = SEED) -> tuple[FourierSeries, FourierSeries]:
    """Weight and shear of an admissible spec, built profile first:
    F = 1 + dF with |dF| <= 0.2, and |g'| <= 0.05."""
    rng = np.random.default_rng([seed, k])
    j = np.arange(1, k + 1)
    pc, ps, gc, gs = rng.normal(size=(4, k)) / j**2
    scale = 0.2 / (np.abs(2 * pc).sum() + np.abs(ps).sum())
    pc, ps = scale * pc, scale * ps
    weight = FourierSeries(1.0 - pc.sum(), pc - j * ps, ps + j * pc)
    scale = 0.05 / (j * (np.abs(gc) + np.abs(gs))).sum()
    return weight, FourierSeries(solve_g_const(tuple(scale * gc)), scale * gc, scale * gs)


def fresh(s: FourierSeries) -> FourierSeries:
    return FourierSeries(s.a0, s.cos, s.sin)


def best_ms(pairs_per_run, runs: int) -> float:
    """Best over runs of the mean build time, in ms; pairs_per_run() gives each run's pairs."""
    best = float("inf")
    for _ in range(runs):
        pairs = pairs_per_run()
        start = time.perf_counter()
        for w, g in pairs:
            build_loop_spec(w, g)
        best = min(best, (time.perf_counter() - start) / len(pairs))
    return 1e3 * best


def host() -> dict:
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            names = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            model = next(names, "")
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--builds", type=int, default=100)
    args = parser.parse_args()
    rows = []
    for k in KS:
        weight, g = dense_pair(k)
        spec = build_loop_spec(weight, g)
        if not spec.verdict:
            raise SystemExit(f"K={k}: the dense spec is not admissible: {spec.report.failures}")
        warm = best_ms(lambda: [(weight, g)] * args.builds, args.runs)
        cold = best_ms(lambda: [(fresh(weight), fresh(g)) for _ in range(args.builds)], args.runs)
        for case, ms in (("warm", warm), ("cold", cold)):
            rows.append({"layer": "L1", "case": f"build_loop_spec, {case} series",
                         "spec": f"dense seed {SEED}", "K": k, "grid_points": spec.report.grid_n,
                         "best_ms": round(ms, 4), "runs": args.runs, "builds_per_run": args.builds})
    print(json.dumps({"host": host(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
