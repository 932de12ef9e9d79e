"""Batch command-line front end.

    circleloop validate  SPEC
    circleloop mul       SPEC S T
    circleloop ldiv      SPEC A B
    circleloop rdiv      SPEC B A
    circleloop table     SPEC -n N -o OUT.csv
    circleloop plot-data SPEC -o OUT.csv
    circleloop check     SPEC --suite NAME [--seed S] [--skip-validation]

Global flags: --grid N (N >= 4) overrides the validation grid, the one
grid that both the verdict and suite baer read, --degrees converts angle
arguments from degrees on input (output stays in radians),
and --tol-eq (the tolerance on |F(0) - 1| and |g(0)|) and --delta-strict
(the margin F and Q must clear on the grid) override the spec file's
tolerances.  Angle arguments must be finite; a negative one is given in
decimal form (-1.5): the argparse of Python 3.10 and 3.11 reads -1e-3 as
an option, a usage error.  plot-data writes t, f, g, h and disc on the
validation grid, f and disc from the samples of F and Q the verdict read.
validate ends with one strict JSON line: a non-finite number is null, and
so is the angle of an undefined discriminant maximum.

Exit codes are the machine contract: 0 pass (and --help), 1 I/O / schema
/ usage error, 2 inadmissible spec, 3 suite failure.  A usage error prints
one `error: ` line to stderr.  The process imports only what its command
runs: argv is parsed by the standard library's argparse, and the suites
(`verify`) load inside `check`.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import ops
from .builder import (
    LoopSpec, Tolerances, _q_on_grid, build_loop_spec, subfunction_bound, uniform_grid,
)
from .errors import SpecFileError, UnknownSuiteError
from .fourier import DEFAULT_GRID, TWO_PI, _float
from .specfile import load_spec_file

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INADMISSIBLE = 2
EXIT_SUITE_FAILURE = 3


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _build(args: argparse.Namespace) -> LoopSpec:
    """The spec of args.spec_path, under the global options' grid and tolerances."""
    try:
        doc = load_spec_file(args.spec_path)
    except SpecFileError as exc:
        _fail(str(exc), EXIT_ERROR)
    grid_n = args.grid_n if args.grid_n is not None else doc.grid_n or DEFAULT_GRID
    tol = doc.tolerances or Tolerances()
    overrides = {
        name: getattr(args, name)
        for name in ("tol_eq", "delta_strict")
        if getattr(args, name) is not None
    }
    try:
        tol = dataclasses.replace(tol, **overrides)
    except ValueError as exc:
        _fail(str(exc), EXIT_ERROR)
    return build_loop_spec(doc.weight, doc.g, grid_n=grid_n, tolerances=tol)


def _echo_failures(spec: LoopSpec, err: bool = False) -> None:
    """One line per failed condition: FAIL name[ at t=where]: value."""
    for fail in spec.report.failures:
        where = "" if fail.where is None else f" at t={fail.where:.6f}"
        print(f"FAIL {fail.condition}{where}: {fail.value:.6g}", file=sys.stderr if err else None)


def _require_valid(spec: LoopSpec) -> None:
    if not spec.report.verdict:
        _echo_failures(spec, err=True)
        _fail("spec is inadmissible", EXIT_INADMISSIBLE)


def _print_operation(args: argparse.Namespace, op, x: float, y: float) -> None:
    """Build and require a valid spec, then print op(spec, x, y) in radians."""
    if args.degrees:
        x, y = x * np.pi / 180.0, y * np.pi / 180.0
    # op has no gate: the angles are checked in radians (1e308 degrees overflows)
    if not np.isfinite([x, y]).all():
        _fail(f"angle arguments must be finite, got {x!r} and {y!r}", EXIT_ERROR)
    spec = _build(args)
    _require_valid(spec)
    print(f"{_snap(op(spec, x, y)):.12f}")


def _snap(angle):
    """Angles closer to 2*pi than the print resolution are the point 0."""
    angle = np.asarray(angle)
    return _float(np.where(TWO_PI - angle < 1e-11, 0.0, angle))


def _finite_or_null(value):
    """value with every non-finite float replaced by None, recursively."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _report_dict(spec: LoopSpec) -> dict:
    r = spec.report
    return {
        "verdict": r.verdict,
        "grid_n": r.grid_n,
        "tolerances": dataclasses.asdict(r.tolerances),
        "profile_min": r.f_inv_min,
        "profile_argmin": r.f_inv_argmin,
        "discriminant_max": r.discriminant_max,
        "discriminant_argmax": r.discriminant_argmax,
        "q_min": r.q_min,
        "q_argmin": r.q_argmin,
        "initial_slope_margin": r.initial_slope_margin,
        "integral_value": r.integral_value,
        "boundary_residuals": [r.f0_residual, r.g0_residual],
        "failures": [
            {"condition": f.condition, "where": f.where, "value": f.value}
            for f in r.failures
        ],
    }


def validate(args: argparse.Namespace) -> None:
    """Run every admissibility check and print the validation report."""
    spec = _build(args)
    r, tol = spec.report, spec.report.tolerances
    print(f"# grid_n={r.grid_n} tol_eq={tol.tol_eq:g} delta_strict={tol.delta_strict:g}")
    print(f"profile minimum          : {r.f_inv_min:.6g} at t={r.f_inv_argmin:.6f}")
    at = "" if r.discriminant_argmax is None else f" at t={r.discriminant_argmax:.6f}"
    print(f"discriminant maximum     : {r.discriminant_max:.6g}{at}")
    print(f"Q minimum                : {r.q_min:.6g} at t={r.q_argmin:.6f}")
    print(f"initial slope margin     : {r.initial_slope_margin:.6g}")
    print(f"integral inequality      : {r.integral_value:.6g}")
    print(f"boundary residuals       : |f(0)-1|={r.f0_residual:.3g} |g(0)|={r.g0_residual:.3g}")
    _echo_failures(spec)
    print(f"verdict                  : {'ADMISSIBLE' if r.verdict else 'INADMISSIBLE'}")
    print(json.dumps(_finite_or_null(_report_dict(spec)), allow_nan=False))
    sys.exit(EXIT_OK if r.verdict else EXIT_INADMISSIBLE)


def mul(args: argparse.Namespace) -> None:
    """Print the loop product S * T in radians."""
    _print_operation(args, ops.mul, args.s, args.t)


def ldiv(args: argparse.Namespace) -> None:
    """Print the solution y of A * y = B."""
    _print_operation(args, ops.ldiv, args.a, args.b)


def rdiv(args: argparse.Namespace) -> None:
    """Print the solution x of x * A = B."""
    _print_operation(args, ops.rdiv, args.b, args.a)


def table(args: argparse.Namespace) -> None:
    """Write the (n+1) x (n+1) multiplication table as CSV rows s,t,mul."""
    size = args.size
    if size < 2:
        _fail(f"table size must be >= 2, got {size}", EXIT_ERROR)
    spec = _build(args)
    _require_valid(spec)
    angles = TWO_PI * np.arange(size + 1) / (size + 1)
    ss, tt = np.meshgrid(angles, angles, indexing="ij")
    products = _snap(ops.mul(spec, ss, tt)).ravel().tolist()
    axis = [f"{a:.12g}" for a in angles.tolist()]
    lines = ["s,t,mul"] + [
        f"{s},{t},{p:.12g}" for (s, t), p in zip(itertools.product(axis, repeat=2), products)
    ]
    _write_csv(args.out_path, lines)
    print(f"wrote {len(lines) - 1} rows to {args.out_path}")


def plot_data(args: argparse.Namespace) -> None:
    """Write t, f(t), g(t), h(t), disc(t) over the validation grid as CSV.

    f, g and disc come from the grid samples the verdict read.
    """
    spec = _build(args)
    _require_valid(spec)
    n = spec.report.grid_n
    ts = uniform_grid(n)
    h = subfunction_bound(spec.f_inv, ts, grid_n=n)
    _, disc = _q_on_grid(spec.f_inv, spec.g, n)
    lines = ["t,f,g,h,disc"]
    columns = (ts, 1.0 / spec.f_inv._on_grid(n), spec.g._on_grid(n), h, disc)
    for row in zip(*(c.tolist() for c in columns)):
        lines.append(",".join(f"{v:.12g}" for v in row))
    _write_csv(args.out_path, lines)
    print(f"wrote {len(lines) - 1} rows to {args.out_path}")


def _write_csv(path: str, lines: list[str]) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", EXIT_ERROR)


def check(args: argparse.Namespace) -> None:
    """Run verification suites; exit 3 if any fails."""
    from . import verify

    spec = _build(args)
    if not args.skip_validation:
        _require_valid(spec)
    suite = args.suite
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    try:
        results = verify.run_suite(spec, suite, seed=seed)
    except UnknownSuiteError as exc:
        _fail(str(exc), EXIT_ERROR)
    failed = False
    for res in results:
        informational = suite == "all" and res.suite_name == "psl2"
        status = "PASS" if res.passed else ("INFO" if informational else "FAIL")
        if not res.passed and not informational:
            failed = True
        seed_note = "" if res.seed is None else f" seed={res.seed}"
        print(
            f"{status} {res.suite_name}: cases={res.cases_run} "
            f"worst={res.worst_violation:.6g} tol={res.tolerance:g}{seed_note}"
        )
        if res.suite_name == "baer":
            for name, where, value in res.details:
                if name == "eta-min-slope":
                    print(f"  min eta slope {value:.6g} at (beta, t)={where}")
        if not res.passed:
            for name, where, value in res.details:
                if value > res.tolerance:
                    print(f"  {name} at {where}: {value:.6g}")
    sys.exit(EXIT_SUITE_FAILURE if failed else EXIT_OK)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors follow the exit-code contract."""

    def error(self, message: str) -> None:
        _fail(message, EXIT_ERROR)


def _int_at_least(low: int):
    """The argparse type of an integer option that must be >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value

    return parse


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circleloop", allow_abbrev=False,
                     description="Construct and verify differentiable loops on the circle.")
    parser.add_argument("--grid", dest="grid_n", metavar="N", type=_int_at_least(4), default=None,
                        help="Validation grid size override.")
    parser.add_argument("--degrees", action="store_true",
                        help="Interpret angle arguments as degrees.")
    parser.add_argument("--tol-eq", metavar="TOL", type=float, default=None,
                        help="Tolerance override for |F(0) - 1| and |g(0)|.")
    parser.add_argument("--delta-strict", metavar="DELTA", type=float, default=None,
                        help="Required margin of F and Q on the grid.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run, *angles: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__.replace("_", "-"), allow_abbrev=False, description=run.__doc__,
                                  help=run.__doc__.splitlines()[0])
        sub.set_defaults(run=run)
        sub.add_argument("spec_path", metavar="SPEC")
        for angle in angles:
            sub.add_argument(angle.lower(), metavar=angle, type=float)
        return sub

    command(validate)
    command(mul, "S", "T")
    command(ldiv, "A", "B")
    command(rdiv, "B", "A")
    sub = command(table)
    sub.add_argument("-n", dest="size", metavar="N", type=int, required=True,
                     help="Angles per axis minus one.")
    sub.add_argument("-o", "--out", dest="out_path", metavar="OUT.csv", required=True,
                     help="Output CSV.")
    sub = command(plot_data)
    sub.add_argument("-o", "--out", dest="out_path", metavar="OUT.csv", required=True,
                     help="Output CSV.")
    sub = command(check)
    sub.add_argument("--suite", metavar="NAME", default="all",
                     help="axioms | baer | isomorphism | oracle | psl2 | all.")
    # the default is verify.DEFAULT_SEED, resolved in check: parsing imports no suite
    sub.add_argument("--seed", metavar="S", type=_int_at_least(0), default=None,
                     help="Seed for randomized suites.  [default: 20260810]")
    sub.add_argument("--skip-validation", action="store_true",
                     help="Run suites even on an inadmissible spec (diagnostics).")
    return parser


def main() -> None:
    args = _parser().parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
