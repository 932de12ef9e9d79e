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
tolerances.  Angle arguments must be finite.  plot-data writes the
samples the verdict read: F, F', g and g' on the validation grid.

Exit codes are the machine contract: 0 pass, 1 I/O / schema / usage
error, 2 inadmissible spec, 3 suite failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import ops, verify
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
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _build(path: str, options: dict) -> LoopSpec:
    try:
        doc = load_spec_file(path)
    except SpecFileError as exc:
        _fail(str(exc), EXIT_ERROR)
    grid_n = options["grid"] if options["grid"] is not None else doc.grid_n or DEFAULT_GRID
    tol = doc.tolerances or Tolerances()
    overrides = {
        name: options[name]
        for name in ("tol_eq", "delta_strict")
        if options[name] is not None
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
        click.echo(f"FAIL {fail.condition}{where}: {fail.value:.6g}", err=err)


def _require_valid(spec: LoopSpec) -> None:
    if not spec.report.verdict:
        _echo_failures(spec, err=True)
        _fail("spec is inadmissible", EXIT_INADMISSIBLE)


def _angle(value: float, degrees: bool) -> float:
    return float(value) * np.pi / 180.0 if degrees else float(value)


def _print_operation(ctx: click.Context, spec_path: str, op, x: float, y: float) -> None:
    """Build and require a valid spec, then print op(spec, x, y) in radians."""
    if not np.isfinite([x, y]).all():
        _fail(f"angle arguments must be finite, got {x!r} and {y!r}", EXIT_ERROR)
    spec = _build(spec_path, ctx.obj)
    _require_valid(spec)
    d = ctx.obj["degrees"]
    click.echo(f"{_snap(op(spec, _angle(x, d), _angle(y, d))):.12f}")


def _snap(angle):
    """Angles closer to 2*pi than the print resolution are the point 0."""
    angle = np.asarray(angle)
    return _float(np.where(TWO_PI - angle < 1e-11, 0.0, angle))


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


@click.group()
@click.option("--grid", "grid_n", type=click.IntRange(min=4), default=None,
              help="Validation grid size override.")
@click.option("--degrees", is_flag=True, help="Interpret angle arguments as degrees.")
@click.option("--tol-eq", type=float, default=None,
              help="Tolerance override for |F(0) - 1| and |g(0)|.")
@click.option("--delta-strict", type=float, default=None,
              help="Required margin of F and Q on the grid.")
@click.pass_context
def cli(ctx: click.Context, grid_n: int | None, degrees: bool, tol_eq: float | None,
        delta_strict: float | None) -> None:
    """Construct and verify differentiable loops on the circle."""
    ctx.obj = {
        "grid": grid_n,
        "degrees": degrees,
        "tol_eq": tol_eq,
        "delta_strict": delta_strict,
    }


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.pass_context
def validate(ctx: click.Context, spec_path: str) -> None:
    """Run every admissibility check and print the validation report."""
    spec = _build(spec_path, ctx.obj)
    r, tol = spec.report, spec.report.tolerances
    click.echo(f"# grid_n={r.grid_n} tol_eq={tol.tol_eq:g} delta_strict={tol.delta_strict:g}")
    click.echo(f"profile minimum          : {r.f_inv_min:.6g} at t={r.f_inv_argmin:.6f}")
    click.echo(f"discriminant maximum     : {r.discriminant_max:.6g} at t={r.discriminant_argmax:.6f}")
    click.echo(f"Q minimum                : {r.q_min:.6g} at t={r.q_argmin:.6f}")
    click.echo(f"initial slope margin     : {r.initial_slope_margin:.6g}")
    click.echo(f"integral inequality      : {r.integral_value:.6g}")
    click.echo(f"boundary residuals       : |f(0)-1|={r.f0_residual:.3g} |g(0)|={r.g0_residual:.3g}")
    _echo_failures(spec)
    click.echo(f"verdict                  : {'ADMISSIBLE' if r.verdict else 'INADMISSIBLE'}")
    click.echo(json.dumps(_report_dict(spec)))
    sys.exit(EXIT_OK if r.verdict else EXIT_INADMISSIBLE)


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.argument("s", type=float)
@click.argument("t", type=float)
@click.pass_context
def mul(ctx: click.Context, spec_path: str, s: float, t: float) -> None:
    """Print the loop product S * T in radians."""
    _print_operation(ctx, spec_path, ops.mul, s, t)


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.argument("a", type=float)
@click.argument("b", type=float)
@click.pass_context
def ldiv(ctx: click.Context, spec_path: str, a: float, b: float) -> None:
    """Print the solution y of A * y = B."""
    _print_operation(ctx, spec_path, ops.ldiv, a, b)


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.argument("b", type=float)
@click.argument("a", type=float)
@click.pass_context
def rdiv(ctx: click.Context, spec_path: str, b: float, a: float) -> None:
    """Print the solution x of x * A = B."""
    _print_operation(ctx, spec_path, ops.rdiv, b, a)


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.option("-n", "size", type=int, required=True, help="Angles per axis minus one.")
@click.option("-o", "--out", "out_path", required=True, type=click.Path(), help="Output CSV.")
@click.pass_context
def table(ctx: click.Context, spec_path: str, size: int, out_path: str) -> None:
    """Write the (n+1) x (n+1) multiplication table as CSV rows s,t,mul."""
    if size < 2:
        _fail(f"table size must be >= 2, got {size}", EXIT_ERROR)
    spec = _build(spec_path, ctx.obj)
    _require_valid(spec)
    angles = TWO_PI * np.arange(size + 1) / (size + 1)
    ss, tt = np.meshgrid(angles, angles, indexing="ij")
    products = _snap(ops.mul(spec, ss, tt))
    lines = ["s,t,mul"]
    for s, t, p in zip(ss.ravel(), tt.ravel(), products.ravel()):
        lines.append(f"{s:.12g},{t:.12g},{p:.12g}")
    _write_csv(out_path, lines)
    click.echo(f"wrote {len(lines) - 1} rows to {out_path}")


@cli.command("plot-data")
@click.argument("spec_path", metavar="SPEC")
@click.option("-o", "--out", "out_path", required=True, type=click.Path(), help="Output CSV.")
@click.pass_context
def plot_data(ctx: click.Context, spec_path: str, out_path: str) -> None:
    """Write t, f(t), g(t), h(t), disc(t) over the validation grid as CSV.

    f, g and disc come from the grid samples the verdict read.
    """
    spec = _build(spec_path, ctx.obj)
    _require_valid(spec)
    n = spec.report.grid_n
    ts = uniform_grid(n)
    h = subfunction_bound(spec.f_inv, ts, grid_n=n)
    _, disc = _q_on_grid(spec.f_inv, spec.g, n)
    lines = ["t,f,g,h,disc"]
    for row in zip(ts, 1.0 / spec.f_inv._on_grid(n), spec.g._on_grid(n), h, disc):
        lines.append(",".join(f"{v:.12g}" for v in row))
    _write_csv(out_path, lines)
    click.echo(f"wrote {len(lines) - 1} rows to {out_path}")


def _write_csv(path: str, lines: list[str]) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", EXIT_ERROR)


@cli.command()
@click.argument("spec_path", metavar="SPEC")
@click.option("--suite", default="all", help="axioms | baer | isomorphism | oracle | psl2 | all.")
@click.option("--seed", type=click.IntRange(min=0), default=verify.DEFAULT_SEED,
              show_default=True, help="Seed for randomized suites.")
@click.option("--skip-validation", is_flag=True,
              help="Run suites even on an inadmissible spec (diagnostics).")
@click.pass_context
def check(ctx: click.Context, spec_path: str, suite: str, seed: int,
          skip_validation: bool) -> None:
    """Run verification suites; exit 3 if any fails."""
    spec = _build(spec_path, ctx.obj)
    if not skip_validation:
        _require_valid(spec)
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
        click.echo(
            f"{status} {res.suite_name}: cases={res.cases_run} "
            f"worst={res.worst_violation:.6g} tol={res.tolerance:g}{seed_note}"
        )
        if res.suite_name == "baer":
            for name, where, value in res.details:
                if name == "eta-min-slope":
                    click.echo(f"  min eta slope {value:.6g} at (beta, t)={where}")
        if not res.passed:
            for name, where, value in res.details:
                if value > res.tolerance:
                    click.echo(f"  {name} at {where}: {value:.6g}")
    sys.exit(EXIT_SUITE_FAILURE if failed else EXIT_OK)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        _fail(exc.format_message(), EXIT_ERROR)
    except click.exceptions.Abort:
        sys.exit(EXIT_ERROR)


if __name__ == "__main__":
    main()
