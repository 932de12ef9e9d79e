"""Spans around circleloop's public functions, installed at run time.

The program itself is not changed: `Tracer.install` replaces each target
function in every loaded circleloop module that binds it (and each target
method on its class) by a wrapper that records a span, and `uninstall`
puts the originals back.  A target that no longer exists is reported as
absent, never as an error.

A span is [kind, start, end, parent, pass, request, points, harmonics,
grid_n, verdict, error]; `parent` indexes the span list (-1 at the top).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (module, attribute path, span kind).  The `_unchecked` operations are
#: private, but the verification suites call them directly.
TARGETS = (
    ("circleloop.fourier", "FourierSeries.__call__", "fourier.eval"),
    ("circleloop.fourier", "FourierSeries.derivative_at", "fourier.eval"),
    ("circleloop.fourier", "FourierSeries.integral_from_zero", "fourier.eval"),
    ("circleloop.fourier", "FourierSeries.exp_weighted_integral", "fourier.eval"),
    ("circleloop.fourier", "FourierSeries.__mul__", "fourier.product"),
    ("circleloop.fourier", "check_weight", "fourier.check_weight"),
    ("circleloop.builder", "build_loop_spec", "builder.build"),
    ("circleloop.builder", "reflect_spec", "builder.reflect"),
    ("circleloop.builder", "check_discriminant", "builder.discriminant"),
    ("circleloop.builder", "subfunction_bound", "builder.subfunction_bound"),
    ("circleloop.ops", "mul", "ops.mul"),
    ("circleloop.ops", "_mul_unchecked", "ops.mul"),
    ("circleloop.ops", "ldiv", "ops.ldiv"),
    ("circleloop.ops", "_ldiv_unchecked", "ops.ldiv"),
    ("circleloop.ops", "rdiv", "ops.rdiv"),
    ("circleloop.ops", "_rdiv_unchecked", "ops.rdiv"),
    ("circleloop.ops", "baer_transversal_check", "ops.transversal"),
    ("circleloop.verify", "run_suite", "verify.run_suite"),
    ("circleloop.verify", "run_axiom_suite", "verify.axioms"),
    ("circleloop.verify", "run_baer_suite", "verify.baer"),
    ("circleloop.verify", "check_isomorphism_pair", "verify.isomorphism"),
    ("circleloop.verify", "oracle_crosscheck_suite", "verify.oracle"),
    ("circleloop.verify", "run_psl2_suite", "verify.psl2"),
    ("circleloop.specfile", "load_spec_file", "specfile.load"),
)
DIVISIONS = ("ops.ldiv", "ops.rdiv")
#: every per-layer metric a traced run reports, per traced pass
LAYER_METRICS = (
    "fourier.eval_s", "fourier.eval_points", "fourier.harmonic_points",
    "fourier.product_calls", "fourier.check_weight_s",
    "builder.build_s", "builder.self_s", "builder.discriminant_s", "builder.grid_points",
    "builder.admitted", "builder.rejected", "builder.false_admits", "builder.false_rejects",
    "ops.mul_s", "ops.ldiv_s", "ops.rdiv_s", "ops.mul_points", "ops.div_points",
    "ops.evals_per_div_point", "ops.div_failures", "ops.transversal_s",
    "verify.axioms_s", "verify.baer_s", "verify.isomorphism_s", "verify.oracle_s",
    "verify.psl2_s", "verify.self_s",
    "specfile.load_s", "cli.self_s", "cli.floor_s", "cli.import_s",
    "trace.overhead_s", "trace.spans", "trace.absent",
)
KIND, START, END, PARENT, PASS, REQUEST, POINTS, HARMONICS, GRID, VERDICT, ERROR = range(11)


def _points(kind: str, args) -> tuple[int, int]:
    """(points, harmonics) of one call, read from its arguments."""
    try:
        if kind == "fourier.eval":
            return int(np.size(args[1])), int(args[0].harmonics)
        if kind.startswith("ops.") and kind != "ops.transversal":
            return int(np.broadcast(args[1], args[2]).size), 0
    except (AttributeError, IndexError, TypeError, ValueError):
        pass  # a changed signature loses the count, not the span
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.pass_no = -1
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, kind: str):
        """A span opened by the benchmark itself, around one request."""
        span = self._open(kind)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, kind: str) -> list:
        span = [kind, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.pass_no, self.request, 0, 0, 0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, kind: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(kind)
            span[POINTS], span[HARMONICS] = _points(kind, args)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if kind == "builder.build":
                report = getattr(result, "report", None)
                span[GRID] = getattr(report, "grid_n", 0)
                span[VERDICT] = bool(getattr(report, "verdict", False))
            return result
        return wrapper

    def install(self) -> None:
        self.absent = []
        for module_name, path, kind in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, kind)
            if outer:
                self._replace(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "circleloop":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-layer times and counts of every pass, from the spans alone.

    Self time is a span's duration minus that of its direct children.
    Operation times count only the outermost ops span, so a division's
    inner products count toward the division.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    in_ops, in_div = [False] * len(spans), [False] * len(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        kind, parent = span[KIND], span[PARENT]
        if parent >= 0:
            in_ops[i] = in_ops[parent] or spans[parent][KIND].startswith("ops.")
            in_div[i] = in_div[parent] or spans[parent][KIND] in DIVISIONS
        duration = span[END] - span[START]
        self_time = duration - child_time[i]
        m = out[span[PASS]]
        m["trace.spans"] += 1
        layer = kind.split(".")[0]
        if layer in ("builder", "verify", "cli"):
            m[f"{layer}.self_s"] += self_time
        if kind == "fourier.eval":
            m["fourier.eval_s"] += self_time
            m["fourier.eval_points"] += span[POINTS]
            m["fourier.harmonic_points"] += span[POINTS] * span[HARMONICS]
            if in_div[i]:
                m["ops.div_eval_points"] += span[POINTS]
        elif kind == "fourier.product":
            m["fourier.product_calls"] += 1
        elif kind == "fourier.check_weight":
            m["fourier.check_weight_s"] += duration
        elif kind == "builder.build":
            m["builder.build_s"] += duration
            m["builder.grid_points"] += span[GRID]
            m["builder.admitted" if span[VERDICT] else "builder.rejected"] += 1
        elif kind == "builder.discriminant":
            m["builder.discriminant_s"] += duration
        elif kind.startswith("ops.") and not in_ops[i]:
            name = kind.split(".")[1]
            m[f"ops.{name}_s"] += duration
            if kind == "ops.mul":
                m["ops.mul_points"] += span[POINTS]
            elif kind in DIVISIONS:
                m["ops.div_points"] += span[POINTS]
                m["ops.div_failures"] += span[ERROR] is not None
        elif kind.startswith("verify.") and kind != "verify.run_suite":
            m[f"{kind}_s"] += duration
        elif kind == "specfile.load":
            m["specfile.load_s"] += duration
    for m in out.values():
        m["ops.evals_per_div_point"] = m.pop("ops.div_eval_points", 0.0) / max(m["ops.div_points"], 1)
    return out


def summarize(per_pass: dict[int, dict[str, float]], names: list[str]) -> dict[str, float]:
    """Median over traced passes of each time, and the first pass's counts."""
    passes = sorted(per_pass)
    result = {}
    for name in names:
        values = [per_pass[p].get(name, 0.0) for p in passes]
        if not values:
            result[name] = 0.0
        elif name.endswith("_s"):
            result[name] = statistics.median(values)
        else:
            result[name] = values[0]
    return result
