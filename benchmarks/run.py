"""circleloop benchmark: one workload run, end to end or traced.

    python3 benchmarks/run.py --workload certify|compute|verify|cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the circleloop under
src/ and reads the fixtures under specs/.  It generates the workload's
inputs from the seed, starts the measured process several times to time
set-up, lets the last one measure for S seconds, and prints each metric
by name with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones; a
traced run also writes its spans to .bench_out/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-up processes started per run, before the one that measures
SETUP_RUNS = 9
#: wall time of a fresh `python3 -c "import numpy"` on the 2-core host the
#: benchmark was built on; `setup_s` is scaled to a machine this fast
REFERENCE_LAUNCH_S = 0.2
#: longest a worker may take beyond its measuring time before it is stopped
GRACE_S = 120
#: one thread for every numeric library, so runs do not depend on the core count
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith(("request_", "pass_")):
        return "probe"
    return "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "compute", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def _host(env: dict) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: env[name] for name in THREAD_PINS},
        "machine": platform.machine(),
    }


def _start_worker(role: str, payload: bytes, root: Path, env: dict, timeout: float):
    """Start a measured process; return it, its set-up time and a stop timer."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), role], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline().decode()
        ready = time.perf_counter()
        if not line.startswith("READY "):
            raise RuntimeError(f"{role} worker failed before it was ready")
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    return proc, ready - start - float(line.split()[1]), timer


def _finish(proc, timer) -> str:
    try:
        out = proc.stdout.read().decode()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "circleloop" / "__init__.py").is_file() or not (root / "specs").is_dir():
        print(f"error: {root} has no src/circleloop or specs/; run from a circleloop checkout",
              file=sys.stderr)
        return 2
    env = _environment(root)
    os.environ.update({name: "1" for name in THREAD_PINS})
    sys.path.insert(0, str(HERE))
    import calibration
    import inputs

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cli_dir = f".bench_out/cli-{args.seed}"
    data = inputs.generate(args.workload, args.seed, root, cli_dir)
    for rel, text in data.get("files", {}).items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    host = _host(env)
    payload = json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": data, "host": host,
        "spans_path": str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"),
    }).encode()

    # launch probes before and after every set-up, so each set-up lies between two
    setups, launches = [], [calibration.launch_probe()]
    for _ in range(SETUP_RUNS):
        proc, setup_s, timer = _start_worker("setup", payload, root, env, GRACE_S)
        _finish(proc, timer)
        setups.append(setup_s)
        launches.append(calibration.launch_probe())
    proc, _, timer = _start_worker("run", payload, root, env, args.seconds + GRACE_S)
    result = json.loads(_finish(proc, timer).strip().splitlines()[-1])

    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} passes of "
          f"{result['requests_per_pass']} requests, {SETUP_RUNS} set-ups")
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = REFERENCE_LAUNCH_S * statistics.median(
            s / (0.5 * (before + after))
            for s, before, after in zip(setups, launches, launches[1:]))
        print(f"  setup_raw_s = {statistics.median(setups):.6g} s (n={SETUP_RUNS}), launch "
              f"probe {statistics.median(launches):.6g} s (n={len(launches)})")
        for name, value, unit, n in result["report"]:
            print(f"  {name} = {value:.6g} {unit} (n={n})")
        for label, ms in result["strata"].items():
            print(f"  stratum {label}: median {ms:.4g} ms")
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    for name, metric in metrics.items():
        print(f"  metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
