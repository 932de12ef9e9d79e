"""The four workloads as they run inside the measured process.

Each workload is built in two steps.  The constructor is the set-up that
`setup_s` measures: it builds the LoopSpecs the workload reuses and makes
one warm-up call per entry point.  `requests()` then returns one pass: a
fixed list of (label, call) pairs that the runner times one at a time,
each call waiting for the previous one.  `check()` compares the outputs
of a pass with the independent reference and counts failures.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibration
import circleloop
import reference
from circleloop import FourierSeries, ops, verify

TWO_PI = 2.0 * math.pi
#: largest circular distance accepted between an output and the reference
TOLERANCE = 1e-9


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def latency_samples(workload, labels, times) -> list[float]:
    """Times of the requests that `request_p50` and `request_p90` describe."""
    return [t for label, t in zip(labels, times) if label.startswith(workload.latency_prefix)]


def latency_report(workload, labels, times, unit: str = "ms") -> list:
    samples = latency_samples(workload, labels, times)
    scale = 1e3 if unit == "ms" else 1.0
    return [(f"{workload.latency}_{unit}_p{q}", scale * percentile(samples, q), unit, len(samples))
            for q in (50, 90)]


def series(data) -> FourierSeries:
    a0, cos, sin = data
    return FourierSeries(a0, tuple(cos), tuple(sin))


def build(spec: dict):
    return circleloop.build_loop_spec(series(spec["weight"]), series(spec["g"]))


def _angles(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, n)


def _misses(spec: dict, left, right, target) -> int:
    """Points where the reference product left * right misses target."""
    product = reference.mul(reference.profile_from_weight(spec["weight"]), spec["g"], left, right)
    miss = reference.circular_distance(product, target)
    return int(np.count_nonzero(~(miss <= TOLERANCE)))


class Certify:
    """build_loop_spec over a fixed, seeded stream of specs of known truth."""

    latency = "certify"
    latency_prefix = ""
    request_span = "bench.request"
    probe = staticmethod(calibration.probe)
    probe_share = 0.05

    def __init__(self, inputs: dict):
        self.specs = inputs["specs"]
        build(next(s for s in self.specs if s["family"] == "dense" and s["k"] == 1))

    def report(self, labels, times, counts) -> list:
        wrong = counts["false_admits"] + counts["false_rejects"]
        return latency_report(self, labels, times) + [
            ("verdict_error_rate", wrong / counts["attempted"], "1", counts["attempted"]),
            ("false_admits", counts["false_admits"], "count", counts["attempted"]),
            ("false_rejects", counts["false_rejects"], "count", counts["attempted"])]

    def requests(self, in_process: bool = True):
        pairs = [(series(s["weight"]), series(s["g"])) for s in self.specs]
        return [(f"{s['family']}:k{s['k']}", lambda w=w, g=g: circleloop.build_loop_spec(w, g))
                for s, (w, g) in zip(self.specs, pairs)]

    def check(self, outputs) -> dict:
        """Count wrong verdicts, and the outputs that fail.

        Every verdict that differs from the truth on the whole circle is a
        false admit or a false reject.  It fails unless it is the verdict of
        the discriminant test sampled on the 4096-point grid, the resolution
        today's certifier documents (ROADMAP item 2): that limit is measured
        by `verdict_error_rate` and `builder.false_admits`, not failed.
        """
        false_admits = false_rejects = failed = 0
        for spec, out in zip(self.specs, outputs):
            if isinstance(out, Exception):
                failed += 1
            elif bool(out.verdict) != spec["truth"]:
                false_admits += int(spec["truth"] is False)
                false_rejects += int(spec["truth"] is True)
                failed += int(bool(out.verdict) != spec.get("sampled", spec["truth"]))
        return {"attempted": len(outputs), "failed": failed,
                "false_admits": false_admits, "false_rejects": false_rejects}


class Compute:
    """Batched and scalar loop operations on specs built during set-up."""

    latency = "round"
    latency_prefix = "round:"
    request_span = "bench.request"
    probe = staticmethod(calibration.probe)
    probe_share = 0.05

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.specs = {key: build(spec) for key, spec in inputs["specs"].items()}
        for spec in self.specs.values():
            _round(spec, 1.0, 2.0)

    def report(self, labels, times, counts) -> list:
        points = [req["points"] for req in self.inputs["requests"]]
        out = []
        for op, unit, scale in (("mul", "Mpts/s", 1e-6), ("ldiv", "kpts/s", 1e-3),
                                ("rdiv", "kpts/s", 1e-3)):
            mine = [(n, t) for label, n, t in zip(labels, points, times)
                    if label.startswith(op + ":")]
            out.append((f"{op}_{unit[0].lower()}pts_per_s",
                        scale * sum(n for n, _ in mine) / sum(t for _, t in mine), unit,
                        sum(n for n, _ in mine)))
        return out + latency_report(self, labels, times) + [
            ("op_error_rate", counts["failed"] / counts["attempted"], "1", counts["attempted"])]

    def requests(self, in_process: bool = True):
        out = []
        for req in self.inputs["requests"]:
            spec = self.specs[req["spec"]]
            a, b = _angles(req["seed"], req["points"])
            if req["op"] == "round":
                a, b = float(a[0]), float(b[0])
                call = lambda spec=spec, a=a, b=b: _round(spec, a, b)
            else:
                call = lambda op=req["op"], spec=spec, a=a, b=b: getattr(ops, op)(spec, a, b)
            out.append((f"{req['op']}:{req['spec']}", call))
        return out

    def check(self, outputs) -> dict:
        attempted = failed = 0
        for req, out in zip(self.inputs["requests"], outputs):
            spec = self.inputs["specs"][req["spec"]]
            a, b = _angles(req["seed"], req["points"])
            n = 3 if req["op"] == "round" else req["points"]
            attempted += n
            if isinstance(out, Exception):
                failed += n
            elif req["op"] == "round":
                p, y, x = out
                a, b = a[0], b[0]
                failed += _misses(spec, a, b, p) + _misses(spec, a, y, p) + _misses(spec, x, b, p)
            elif req["op"] == "mul":
                failed += _misses(spec, a, b, out)
            elif req["op"] == "ldiv":
                failed += _misses(spec, a, out, b)
            else:
                failed += _misses(spec, out, b, a)
        return {"attempted": attempted, "failed": failed}


def _round(spec, a: float, b: float):
    p = ops.mul(spec, a, b)
    return p, ops.ldiv(spec, a, p), ops.rdiv(spec, p, b)


class Verify:
    """run_suite(spec, "all") on fixtures and generated admissible specs."""

    latency = "check"
    latency_prefix = ""
    request_span = "bench.request"
    probe = staticmethod(calibration.probe)
    probe_share = 0.05

    def __init__(self, inputs: dict):
        self.specs = inputs["specs"]
        self.built = [build(spec) for spec in self.specs]
        names = [spec["name"] for spec in self.specs]
        verify.run_suite(self.built[names.index("trivial")], "all")

    def report(self, labels, times, counts) -> list:
        return latency_report(self, labels, times, "s")[:1] + [
            ("check_error_rate", counts["failed"] / counts["attempted"], "1", counts["attempted"])]

    def requests(self, in_process: bool = True):
        return [(spec["name"], lambda s=built: verify.run_suite(s, "all"))
                for spec, built in zip(self.specs, self.built)]

    def check(self, outputs) -> dict:
        attempted = failed = 0
        for spec, out in zip(self.specs, outputs):
            attempted += len(spec["expected"])
            if isinstance(out, Exception):
                failed += len(spec["expected"])
                continue
            got = {res.suite_name: res.passed for res in out}
            failed += sum(got.get(name) is not want for name, want in spec["expected"].items())
        return {"attempted": attempted, "failed": failed}


class Cli:
    """One `python -m circleloop.cli` process at a time over a fixed command mix."""

    latency = "cli"
    latency_prefix = ""
    request_span = "cli.command"
    probe = staticmethod(calibration.launch_probe)
    probe_share = 0.2

    def __init__(self, inputs: dict):
        from circleloop import cli  # noqa: F401  (the import every CLI process pays)
        self.commands = inputs["commands"]
        self.run_process(["validate", "specs/example.json"])

    def report(self, labels, times, counts) -> list:
        return latency_report(self, labels, times) + [
            ("exit_error_rate", counts["failed"] / counts["attempted"], "1", counts["attempted"])]

    @staticmethod
    def run_process(argv):
        proc = subprocess.run([sys.executable, "-m", "circleloop.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def run_in_process(argv):
        """The same command inside this interpreter, as `main()` would run it."""
        from circleloop import cli
        stdout, saved = io.StringIO(), sys.argv
        sys.argv = ["circleloop", *argv]
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                cli.main()
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.argv = saved
        return code, stdout.getvalue()

    def requests(self, in_process: bool = False):
        run = self.run_in_process if in_process else self.run_process
        return [(cmd["argv"][0], lambda argv=cmd["argv"]: run(argv)) for cmd in self.commands]

    def check(self, outputs) -> dict:
        failed = 0
        for cmd, out in zip(self.commands, outputs):
            if isinstance(out, Exception) or out[0] != cmd["exit"]:
                failed += 1
            elif cmd["exit"] == 0 and not self._output_ok(cmd, out[1]):
                failed += 1
        return {"attempted": len(outputs), "failed": failed}

    @staticmethod
    def _output_ok(cmd: dict, stdout: str) -> bool:
        op, args = cmd["argv"][0], cmd["argv"]
        if op in ("mul", "ldiv", "rdiv"):
            try:
                value = float(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return False
            x, y = float(args[2]), float(args[3])
            left, right, target = {"mul": (x, y, value), "ldiv": (x, value, y),
                                   "rdiv": (value, y, x)}[op]
            return _misses(cmd["spec"], left, right, target) == 0
        if op == "table":
            return _table_ok(cmd, Path(args[args.index("-o") + 1]))
        return True


def _table_ok(cmd: dict, path: Path) -> bool:
    """Row count, and every 97th row against the reference product."""
    n = int(cmd["argv"][cmd["argv"].index("-n") + 1])
    try:
        rows = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return False
    if not rows or rows[0] != "s,t,mul" or len(rows) != (n + 1) ** 2 + 1:
        return False
    sample = np.array([[float(v) for v in row.split(",")] for row in rows[1::97]])
    return _misses(cmd["spec"], sample[:, 0], sample[:, 1], sample[:, 2]) == 0


WORKLOADS = {"certify": Certify, "compute": Compute, "verify": Verify, "cli": Cli}


def check_import(root: Path) -> None:
    """Refuse to measure a circleloop that is not the checkout's own source."""
    source = (root / "src").resolve()
    if source not in Path(circleloop.__file__).resolve().parents:
        raise SystemExit(f"circleloop imported from {circleloop.__file__}, not from {source}")
