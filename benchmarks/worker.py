"""The measured process of one workload run; run.py starts it.

    python3 benchmarks/worker.py setup|run   < payload.json

It reads its inputs from stdin, imports circleloop and builds the
workload, then prints "READY <seconds spent reading inputs>".  A `setup`
worker stops there: run.py times several of them for `setup_s`.  A `run`
worker then times whole passes over the workload's requests, one request
at a time, until the next pass would end after `seconds`; checks every
output; and prints one JSON line of results.  Every pass is the same, and
each request's time is its mean over the passes.  Between requests it runs
the workload's calibration probe, for `probe_share` of the time spent in
requests.  With tracing on, passes
alternate untraced and traced, so the difference between the two is the
tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _import_times(runs: int = 7) -> tuple[float, float]:
    """Fastest fresh-interpreter times of `import numpy` and `import circleloop.cli`.

    The two alternate, so that drift in machine load hits both alike, and
    the fastest of several runs is the one least slowed by other load.
    """
    times = {"import numpy": [], "import circleloop.cli": []}
    for _ in range(runs):
        for code, samples in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            samples.append(time.perf_counter() - start)
    return tuple(min(samples) for samples in times.values())


def _passes(workload, seconds: float, tracer):
    """Time passes until the next one would end after `seconds`."""
    requests = workload.requests(in_process=tracer is not None)
    labels = [label for label, _ in requests]
    durations, outputs, traced, probes = [], [], [], []
    busy = probed = 0.0
    start = time.perf_counter()
    while True:
        pass_no = len(durations)
        tracing = tracer is not None and pass_no % 2 == 1
        if tracing:
            tracer.install()
        times, outs = [], []
        try:
            for i, (_, call) in enumerate(requests):
                if tracing:
                    tracer.pass_no, tracer.request = pass_no, i
                span = tracer.span(workload.request_span) if tracing else nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        out = call()
                except Exception as exc:  # a failed request is counted by check()
                    out = exc
                times.append(time.perf_counter() - t0)
                outs.append(out)
                busy += times[-1]
                while probed < workload.probe_share * busy:
                    probes.append(workload.probe())
                    probed += probes[-1]
        finally:
            if tracing:
                tracer.uninstall()
        durations.append(times)
        outputs.append(outs)
        traced.append(tracing)
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(t) for t in durations)
        if elapsed + typical > seconds and (tracer is None or len(durations) >= 2):
            return labels, durations, outputs, traced, probes


def _layer_metrics(workload, tracer, durations, checks, traced, out_path: Path, header):
    import tracing

    per_pass = tracing.layer_metrics(tracer.spans)
    first = traced.index(True)
    for name in ("false_admits", "false_rejects"):
        per_pass[first][f"builder.{name}"] = checks[first].get(name, 0)
    metrics = tracing.summarize(per_pass, list(tracing.LAYER_METRICS))
    floor, full = _import_times()
    metrics["cli.floor_s"] = floor
    metrics["cli.import_s"] = full - floor
    pass_s = [sum(t) for t in durations]
    metrics["trace.overhead_s"] = (
        statistics.median(s for s, on in zip(pass_s, traced) if on)
        - statistics.median(s for s, on in zip(pass_s, traced) if not on))
    metrics["trace.absent"] = len(tracer.absent)
    tracer.write(out_path, dict(header, absent=tracer.absent))
    return metrics


def main() -> int:
    start = time.perf_counter()
    payload = json.loads(sys.stdin.read())
    input_s = time.perf_counter() - start
    root = Path.cwd()

    import workloads

    workloads.check_import(root)
    workload = workloads.WORKLOADS[payload["workload"]](payload["inputs"])
    print(f"READY {input_s!r}", flush=True)
    if sys.argv[1] == "setup":
        return 0

    tracer = None
    if payload["trace"]:
        import tracing
        tracer = tracing.Tracer()
    labels, durations, outputs, traced, probes = _passes(workload, payload["seconds"], tracer)
    checks = [workload.check(outs) for outs in outputs]
    counts = {key: sum(c.get(key, 0) for c in checks)
              for key in ("attempted", "failed", "false_admits", "false_rejects")}
    result = dict(counts, passes=len(durations), requests_per_pass=len(labels))
    if tracer is None:
        mean = [statistics.fmean(times) for times in zip(*durations)]
        probe = statistics.fmean(probes)
        samples = workloads.latency_samples(workload, labels, mean)
        result["metrics"] = {
            "request_p50": workloads.percentile(samples, 50) / probe,
            "request_p90": workloads.percentile(samples, 90) / probe,
            "pass_time": sum(mean) / probe,
        }
        result["report"] = workload.report(labels, mean, counts)
        result["report"].append(("probe_ms", 1e3 * probe, "ms", len(probes)))
        result["strata"] = {
            label: 1e3 * statistics.median(t for lab, t in zip(labels, mean) if lab == label)
            for label in sorted(set(labels))}
    else:
        result["metrics"] = _layer_metrics(workload, tracer, durations, checks, traced,
                                           Path(payload["spans_path"]), payload["host"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
