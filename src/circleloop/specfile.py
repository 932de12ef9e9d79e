"""Loop-spec documents on disk: a single JSON object.

Schema (version 1):

    {
      "schema_version": 1,
      "r":   {"a0": <number>, "cos": [<numbers>], "sin": [<numbers>]},
      "g":   {"const": <number>, "cos": [<numbers>], "sin": [<numbers>]},
      "grid_n": <int>,            # optional
      "tolerances": {             # optional, any subset
        "tol_eq": ..., "delta_strict": ..., "tol_root": ...
      }
    }

tol_eq bounds |F(0) - 1| and |g(0)|, delta_strict is the margin F and Q
must clear on the grid, tol_root the right-division bisection width.
Every tolerance must be finite, tol_eq and delta_strict >= 0 and
tol_root > 0.

"r" holds the weight series that generates the profile, "g" the shear.
Floats are written with full round-trip precision, so a document written
by `dump_spec_file` reloads bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .builder import Tolerances
from .errors import SpecFileError
from .fourier import FourierSeries

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpecDocument:
    weight: FourierSeries
    g: FourierSeries
    grid_n: int | None = None
    tolerances: Tolerances | None = None


def _number_list(obj, where: str) -> tuple[float, ...]:
    if not isinstance(obj, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj
    ):
        raise SpecFileError(f"{where} must be an array of numbers")
    vals = tuple(float(x) for x in obj)
    if not all(math.isfinite(v) for v in vals):
        raise SpecFileError(f"{where} contains a non-finite value")
    return vals


def _number(obj, where: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise SpecFileError(f"{where} must be a number")
    v = float(obj)
    if not math.isfinite(v):
        raise SpecFileError(f"{where} is not finite")
    return v


def _series(obj, key: str, const_key: str) -> FourierSeries:
    if not isinstance(obj, dict):
        raise SpecFileError(f"'{key}' must be an object")
    unknown = set(obj) - {const_key, "cos", "sin"}
    if unknown:
        raise SpecFileError(f"'{key}' has unknown keys: {sorted(unknown)}")
    if const_key not in obj:
        raise SpecFileError(f"'{key}' is missing '{const_key}'")
    const = _number(obj[const_key], f"{key}.{const_key}")
    cos = _number_list(obj.get("cos", []), f"{key}.cos")
    sin = _number_list(obj.get("sin", []), f"{key}.sin")
    if len(cos) != len(sin):
        raise SpecFileError(f"'{key}' cos/sin arrays differ in length")
    return FourierSeries(const, cos, sin)


def parse_spec_document(data: object) -> SpecDocument:
    """Validate a decoded JSON object against the schema."""
    if not isinstance(data, dict):
        raise SpecFileError("document root must be an object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SpecFileError(
            f"schema_version must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}"
        )
    unknown = set(data) - {"schema_version", "r", "g", "grid_n", "tolerances"}
    if unknown:
        raise SpecFileError(f"unknown top-level keys: {sorted(unknown)}")
    if "r" not in data:
        raise SpecFileError("missing required key 'r'")
    weight = _series(data["r"], "r", "a0")
    g = _series(data.get("g", {"const": 0.0}), "g", "const")

    grid_n = data.get("grid_n")
    if grid_n is not None:
        if not isinstance(grid_n, int) or isinstance(grid_n, bool) or grid_n < 4:
            raise SpecFileError(f"grid_n must be an integer >= 4, got {grid_n!r}")

    tolerances = None
    if "tolerances" in data:
        tobj = data["tolerances"]
        if not isinstance(tobj, dict):
            raise SpecFileError("'tolerances' must be an object")
        known = {f.name for f in fields(Tolerances)}
        unknown = set(tobj) - known
        if unknown:
            raise SpecFileError(f"unknown tolerance keys: {sorted(unknown)}")
        try:
            tolerances = Tolerances(
                **{k: _number(v, f"tolerances.{k}") for k, v in tobj.items()}
            )
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
    return SpecDocument(weight=weight, g=g, grid_n=grid_n, tolerances=tolerances)


def load_spec_file(path: str | Path) -> SpecDocument:
    """Read and validate a spec document; raises SpecFileError on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_spec_document(data)


def dump_spec_file(doc: SpecDocument, path: str | Path) -> None:
    """Write a spec document with round-trip float precision."""
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "r": {"a0": doc.weight.a0, "cos": list(doc.weight.cos), "sin": list(doc.weight.sin)},
        "g": {"const": doc.g.a0, "cos": list(doc.g.cos), "sin": list(doc.g.sin)},
    }
    if doc.grid_n is not None:
        data["grid_n"] = doc.grid_n
    if doc.tolerances is not None:
        data["tolerances"] = {
            f.name: getattr(doc.tolerances, f.name) for f in fields(Tolerances)
        }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
