"""Seeded, known-truth inputs for the four workloads.

Everything here runs before any timing and outside the measured process.
The same seed gives the same inputs.  Two spec families exist:

* dense: weight and shear both carry K harmonics with random coefficients
  decaying like 1/k^2.  They cover every K the certifier may meet, on both
  sides of the admissible boundary, and include non-positive profiles,
  on which the certifier skips its later checks.  Their truth comes from
  `reference.admissible`, which certifies every condition on the whole
  circle; only specs it decides are generated.
* near_boundary: trivial weight and g = eps (sin(kt + phi) - sin(phi)) with
  eps = (1 + delta) / k.  The exact discriminant maximum is delta, so the
  spec is admissible iff delta < 0, with margin |delta|.  These specs
  exist to catch a certifier that samples the circle too coarsely: a
  wrong verdict on them is counted, never filtered out.  Each also records
  the verdict of the discriminant test sampled on a 4096-point grid, which
  is all today's certifier checks (see `workloads.Certify.check`).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference

#: (K, admissible, inadmissible, non-positive profile) dense specs per certify pass
CERTIFY_DENSE = ((1, 4, 4, 2), (2, 4, 4, 2), (8, 2, 2, 2), (64, 3, 3, 0), (256, 1, 1, 0))
#: (k, count) near-boundary specs per certify pass.  Sorted by build time
#: the strata are nb1 < nb2 < dense K=1 < dense K=2 < nb16 < dense K=8 <
#: nb64 < dense K=64 < nb256 < dense K=256, so the median build is a dense
#: K = 2 one and p90 a dense K = 64 one.
CERTIFY_NEAR_BOUNDARY = ((1, 6), (2, 6), (16, 6), (64, 4), (256, 2))

#: batched calls per compute pass: (operation, spec key, points)
COMPUTE_BATCHES = (
    ("mul", "k1", 100_000), ("mul", "k64", 50_000),
    ("ldiv", "k1", 10_000), ("ldiv", "k64", 1_000),
    ("rdiv", "k1", 10_000), ("rdiv", "k64", 1_000),
)
#: scalar rounds per compute pass, by spec key.  70% at K = 1 puts the
#: median round inside the K = 1 stratum and p90 inside the K = 64 one.
COMPUTE_ROUNDS = (("k1", 35), ("k64", 15))

VERIFY_FIXTURES = ("trivial", "example", "example_shear", "even_psl2", "corrupted")
#: generated admissible specs per verify pass, by K.  With the fixtures,
#: 8 of 12 specs have K <= 1, so the median suite run is one of them, and
#: p90 is a K = 4 one.
VERIFY_GENERATED = (1, 1, 1, 1, 2, 4, 4)

WORKLOADS = ("certify", "compute", "verify", "cli")


def _series_json(series) -> list:
    a0, c, s = series
    return [float(a0), [float(x) for x in c], [float(x) for x in s]]


def _decaying(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(1, k + 1, dtype=float)
    return rng.normal(size=k) / ks**2, rng.normal(size=k) / ks**2


def _vanishing_at_zero(c: np.ndarray, s: np.ndarray, scale: float):
    """scale * sum c_k (cos kt - 1) + s_k sin kt, as a series."""
    return -scale * float(c.sum()), scale * c, scale * s


def dense_spec(rng: np.random.Generator, k: int, kind: str):
    """A dense spec of the given kind whose truth the reference decides.

    The profile is F = 1 + beta dF and the shear g = lam dg, with dF, dg
    vanishing at 0.  P = F'^2 - F^2 - lam (dg F' + dg' F) is linear in lam,
    so the admissible boundary lam* is found on a grid, and lam is put at a
    fixed fraction of it on the side the kind asks for.
    """
    want = kind == "admissible"
    while True:
        fc, fs = _decaying(rng, k)
        gc, gs = _decaying(rng, k)
        ks = np.arange(1, k + 1, dtype=float)
        fc, fs = (x / float(np.abs(2 * fc).sum() + np.abs(fs).sum()) for x in (fc, fs))
        gc, gs = (x / float((ks * (np.abs(gc) + np.abs(gs))).sum()) for x in (gc, gs))
        dg = _vanishing_at_zero(gc, gs, 1.0)
        if kind == "nonpositive":
            t = np.linspace(0.0, reference.TWO_PI, 16 * k + 64, endpoint=False)
            lowest = float(reference.evaluate(_vanishing_at_zero(fc, fs, 1.0), t).min())
            if lowest > -0.05:
                continue  # dF barely dips below 0: no moderate scale makes F negative
            beta = 1.3 / -lowest
            profile = (1.0 + _vanishing_at_zero(fc, fs, beta)[0], beta * fc, beta * fs)
            g = _vanishing_at_zero(gc, gs, 0.5)
        else:
            profile = _vanishing_at_zero(fc, fs, 0.2)
            profile = (1.0 + profile[0], profile[1], profile[2])
            t = np.linspace(0.0, reference.TWO_PI, 32 * k + 64, endpoint=False)
            f = reference.evaluate(profile, t)
            fp = reference.evaluate((0.0, ks * profile[2], -ks * profile[1]), t)
            q = -(reference.evaluate(dg, t) * fp + reference.evaluate((0.0, ks * gs, -ks * gc), t) * f)
            ratio = (f * f - fp * fp) / np.where(q > 0, q, np.nan)
            lam_star = float(np.nanmin(ratio))
            slope0 = float((ks * gs).sum())
            if slope0 < 0:
                lam_star = min(lam_star, (1.0 - float((ks * profile[2]).sum()) ** 2) / -slope0)
            lam = lam_star * (rng.uniform(0.3, 0.85) if want else rng.uniform(1.2, 2.0))
            g = _vanishing_at_zero(gc, gs, lam)
        weight = reference.weight_from_profile(profile)
        truth = reference.admissible(weight, g)
        if truth is want:
            return _series_json(weight), _series_json(g), truth


def near_boundary_spec(rng: np.random.Generator, k: int):
    """Trivial weight and a one-harmonic shear whose discriminant maximum is delta."""
    delta = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, -2.0))
    phi = (math.pi + float(rng.uniform(0.5, 2.0 * math.pi - 0.5))) % (2.0 * math.pi)
    eps = (1.0 + delta) / k
    cos, sin = [0.0] * k, [0.0] * k
    cos[-1], sin[-1] = eps * math.sin(phi), eps * math.cos(phi)
    g = [-eps * math.sin(phi), cos, sin]
    weight = [1.0, [], []]
    return weight, g, delta < 0.0, delta, reference.sampled_discriminant_holds(weight, g)


def _certify(rng: np.random.Generator) -> dict:
    specs = []
    for k, n_adm, n_inadm, n_nonpos in CERTIFY_DENSE:
        for kind, count in (("admissible", n_adm), ("inadmissible", n_inadm),
                            ("nonpositive", n_nonpos)):
            for _ in range(count):
                weight, g, truth = dense_spec(rng, k, kind)
                specs.append({"family": "dense", "k": k, "kind": kind,
                              "weight": weight, "g": g, "truth": truth})
    for k, count in CERTIFY_NEAR_BOUNDARY:
        for _ in range(count):
            weight, g, truth, delta, sampled = near_boundary_spec(rng, k)
            specs.append({"family": "near_boundary", "k": k, "delta": delta,
                          "weight": weight, "g": g, "truth": truth, "sampled": sampled})
    order = rng.permutation(len(specs))
    return {"specs": [specs[i] for i in order]}


def _compute(rng: np.random.Generator) -> dict:
    specs = {}
    for key, k in (("k1", 1), ("k64", 64)):
        weight, g, _ = dense_spec(rng, k, "admissible")
        specs[key] = {"weight": weight, "g": g}
    requests = [{"op": op, "spec": key, "points": n} for op, key, n in COMPUTE_BATCHES]
    requests += [{"op": "round", "spec": key, "points": 1}
                 for key, count in COMPUTE_ROUNDS for _ in range(count)]
    order = rng.permutation(len(requests))
    requests = [dict(requests[i], seed=int(rng.integers(2**31))) for i in order]
    return {"specs": specs, "requests": requests}


def read_fixture(root: Path, name: str) -> dict:
    """A spec file from specs/, read without circleloop's own parser."""
    doc = json.loads((root / "specs" / f"{name}.json").read_text(encoding="utf-8"))
    r, g = doc["r"], doc.get("g", {"const": 0.0})
    return {"weight": [r["a0"], r.get("cos", []), r.get("sin", [])],
            "g": [g["const"], g.get("cos", []), g.get("sin", [])]}


def expected_suites(weight, g) -> dict:
    """Suite outcomes implied by the spec's truth.

    axioms and baer pass exactly for a loop; isomorphism also needs the
    mirror to be admissible, which holds iff the spec is; the oracle
    compares exact identities and always passes; psl2 is the predicate.
    """
    truth = reference.admissible(weight, g)
    if truth is None:
        raise ValueError("fixture is too close to the admissible boundary to decide")
    return {"axioms": truth, "baer": truth, "isomorphism": truth, "oracle": True,
            "psl2": reference.covers_rotation_quotient(weight, g)}


def _verify(rng: np.random.Generator, root: Path) -> dict:
    specs = []
    for name in VERIFY_FIXTURES:
        spec = dict(read_fixture(root, name), name=name)
        specs.append(dict(spec, expected=expected_suites(spec["weight"], spec["g"])))
    for i, k in enumerate(VERIFY_GENERATED):
        weight, g, _ = dense_spec(rng, k, "admissible")
        specs.append({"name": f"dense_k{k}_{i}", "weight": weight, "g": g,
                      "expected": expected_suites(weight, g)})
    order = rng.permutation(len(specs))
    return {"specs": [specs[i] for i in order]}


def _spec_document(spec: dict) -> dict:
    (a0, ac, asin), (g0, gc, gs) = spec["weight"], spec["g"]
    return {"schema_version": 1, "r": {"a0": a0, "cos": ac, "sin": asin},
            "g": {"const": g0, "cos": gc, "sin": gs}}


def _cli(rng: np.random.Generator, root: Path, out_dir: str) -> dict:
    """Command mix: nine quick commands, then `table` and two `check` runs.

    The quick commands are 9/12 of a pass, so the median process is in the
    middle of them; p90 is the middle one of the three heavy commands.
    """
    weight, g, _ = dense_spec(rng, 1, "admissible")
    generated = {"weight": weight, "g": g}
    files = {
        f"{out_dir}/dense_k1.json": json.dumps(_spec_document(generated)),
        f"{out_dir}/malformed.json": json.dumps({"schema_version": 1, "r": {"a0": "one"}}),
    }
    specs = {name: read_fixture(root, name)
             for name in ("example", "example_shear", "inadmissible", "corrupted")}
    specs["dense_k1"] = generated
    path = {name: f"specs/{name}.json" for name in specs}
    path["dense_k1"] = f"{out_dir}/dense_k1.json"

    def exit_if_valid(name: str) -> int:
        return 0 if reference.admissible(specs[name]["weight"], specs[name]["g"]) else 2

    def check_exit(name: str, skip_validation: bool = False) -> int:
        if not skip_validation and not reference.admissible(specs[name]["weight"],
                                                             specs[name]["g"]):
            return 2
        expected = expected_suites(specs[name]["weight"], specs[name]["g"])
        return 0 if all(v for suite, v in expected.items() if suite != "psl2") else 3

    def angles() -> list[str]:
        return [repr(float(x)) for x in rng.uniform(0.0, reference.TWO_PI, 2)]

    commands = [
        {"argv": ["validate", path["example"]], "exit": exit_if_valid("example")},
        {"argv": ["validate", path["dense_k1"]], "exit": exit_if_valid("dense_k1")},
        {"argv": ["validate", path["inadmissible"]], "exit": exit_if_valid("inadmissible")},
        {"argv": ["validate", f"{out_dir}/malformed.json"], "exit": 1},
    ]
    for op, name in (("mul", "example_shear"), ("mul", "dense_k1"), ("mul", "example"),
                     ("ldiv", "dense_k1"), ("rdiv", "example")):
        commands.append({"argv": [op, path[name], *angles()], "exit": exit_if_valid(name),
                         "spec": specs[name]})
    commands.append({"argv": ["table", path["dense_k1"], "-n", "256", "-o",
                              f"{out_dir}/table.csv"], "exit": 0, "spec": generated})
    seed = str(int(rng.integers(2**31)))
    commands.append({"argv": ["check", path["example_shear"], "--suite", "all", "--seed", seed],
                     "exit": check_exit("example_shear")})
    commands.append({"argv": ["check", "--skip-validation", path["corrupted"]],
                     "exit": check_exit("corrupted", skip_validation=True)})
    order = rng.permutation(len(commands))
    return {"files": files, "commands": [commands[i] for i in order]}


def generate(workload: str, seed: int, root: Path, out_dir: str) -> dict:
    """Inputs for one run of `workload`; `out_dir` is where cli spec files go."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "certify":
        return _certify(rng)
    if workload == "compute":
        return _compute(rng)
    if workload == "verify":
        return _verify(rng, root)
    return _cli(rng, root, out_dir)
