"""Time fresh CLI processes, one command shape at a time: the L4 rows of BENCH_*.json.

    PYTHONPATH=src python3 tools/bench_l4.py [--runs 9] LABEL=SRC [LABEL=SRC ...]

    e.g. PYTHONPATH=src python3 tools/bench_l4.py parent=../parent/src change=src

Run it from the root of a checkout: the commands read specs/*.json.  Each
SRC is a `src` directory holding a `circleloop` package; it is copied to a
temporary directory, so no checkout is written.  Every process is timed
from launch to exit, in two modes: `source`, with PYTHONDONTWRITEBYTECODE=1
and no `__pycache__` in the copy, so circleloop is compiled from source in
every process; and `precompiled`, after `compileall` on the copy.  numpy's
own bytecode is used as installed in both.  Within a round each command
runs once per SRC, back to back, and the SRC order alternates between
rounds, so drift in machine load hits every SRC alike.  The commands are
the floor `import numpy`, `import circleloop.cli`, and each command shape
of the benchmark's cli workload.  Prints one JSON object: the host and
one row per command and mode, with each SRC's best and median in ms.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from bench_l1 import host

COMMANDS = (
    ("import numpy", ["-c", "import numpy"]),
    ("import circleloop.cli", ["-c", "import circleloop.cli"]),
    ("validate", ["validate", "specs/example.json"]),
    ("mul", ["mul", "specs/example_shear.json", "1.0", "2.0"]),
    ("ldiv", ["ldiv", "specs/example.json", "1.0", "2.0"]),
    ("rdiv", ["rdiv", "specs/example.json", "2.0", "1.0"]),
    ("table -n 256", ["table", "specs/example_shear.json", "-n", "256", "-o", "{out}"]),
    ("check --suite all", ["check", "specs/example_shear.json", "--suite", "all", "--seed", "7"]),
    ("check --skip-validation", ["check", "--skip-validation", "specs/corrupted.json"]),
)
MODES = ("source", "precompiled")


def argv_of(args: list[str], out: str) -> list[str]:
    if args[0] == "-c":
        return [sys.executable, *args]
    return [sys.executable, "-m", "circleloop.cli", *(a.format(out=out) for a in args)]


def timed(argv: list[str], env: dict) -> tuple[float, int]:
    start = time.perf_counter()
    code = subprocess.run(argv, env=env, capture_output=True, timeout=120).returncode
    return time.perf_counter() - start, code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("srcs", nargs="+", metavar="LABEL=SRC")
    args = parser.parse_args()
    labels = [s.split("=", 1)[0] for s in args.srcs]
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for spec in args.srcs:
            label, src = spec.split("=", 1)
            for mode in MODES:
                copy = os.path.join(tmp, label, mode)
                shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
                if mode == "precompiled":
                    compileall.compile_dir(copy, quiet=1)
                env = dict(os.environ, PYTHONPATH=copy)
                env.pop("PYTHONDONTWRITEBYTECODE", None)
                if mode == "source":
                    env["PYTHONDONTWRITEBYTECODE"] = "1"
                envs[label, mode] = env
        out = os.path.join(tmp, "table.csv")
        times = {(label, mode, case): [] for label in labels for mode in MODES
                 for case, _ in COMMANDS}
        exits = {}
        for run in range(args.runs):
            order = labels if run % 2 == 0 else labels[::-1]
            for mode in MODES:
                for case, cmd in COMMANDS:
                    for label in order:
                        seconds, code = timed(argv_of(cmd, out), envs[label, mode])
                        times[label, mode, case].append(seconds)
                        exits.setdefault(case, set()).add(code)
    if any(len(codes) > 1 for codes in exits.values()):
        raise SystemExit(f"exit codes differ between runs or SRCs: {exits}")
    rows = []
    for mode in MODES:
        for case, cmd in COMMANDS:
            row = {"layer": "L4", "case": case, "mode": mode,
                   "command": shlex.join(["python3", *argv_of(cmd, "OUT.csv")[1:]]),
                   "exit": next(iter(exits[case])), "runs": args.runs}
            for label in labels:
                samples = times[label, mode, case]
                row[f"{label}_best_ms"] = round(1e3 * min(samples), 1)
                row[f"{label}_median_ms"] = round(1e3 * statistics.median(samples), 1)
            rows.append(row)
    print(json.dumps({"host": host(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
