#!/usr/bin/env python3
"""One sha256 over a fixed set of seeded outputs of the package.

A refactor that must not change behaviour should print the same hash
before and after.  The hash covers, on seeded lattices n = 2..4 plus Z^2
(which has exact ties):

- the relevant vectors (coefficients, ambient coordinates, lambda_1^2, R^2)
- all four solve strategies, with their walk traces as JSON lines
- for each seeded target, the query layers called directly: three
  `uniform_sample` draws, the `round_to_start` start and `certify` on it
- randomized walks and queries under small edge budgets (truncations and
  restart-limit errors included), and on Z^2 a walk whose descent leg
  crosses twice, is cut by budgets, or ties
- the crossing-trial rows
- `cvp_bruteforce` (distance and ordered minimizers) on every seeded
  target and on tie targets: deep holes of Z^2 and D4, the facet
  midpoints v/2 of A2 + line and D4, 0, a lattice point, and 1-D cases
- the CLI outputs of `gen`, `preprocess`, `solve --trace-out`,
  `crossings` (CSV and JSON, with manifest sidecars) and `graphdist`,
  every file those commands write included

Wall-clock fields (`wall_clock`, `timestamp`) are dropped and the CLI
runs on relative paths in a scratch directory, so reruns hash the same.

Example:
    PYTHONPATH=src python scripts/seeded_outputs.py
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from voronoi_cvp import LatticeBasis, LatticePoint, SamplerConfig, Target, TieDetected, cli
from voronoi_cvp import compute_relevant_vectors, cvp_bruteforce, preprocess, query
from voronoi_cvp.errors import RestartLimitExceeded
from voronoi_cvp.experiments import STRATEGIES, crossing_rows, run_crossing_trials
from voronoi_cvp.experiments import solve_with_strategy
from voronoi_cvp.lattice import random_rational_basis, random_rational_target
from voronoi_cvp.navigation import TRUNCATED, line_follow, mv_walk, randomized_straight_line
from voronoi_cvp.navigation import trace_to_jsonl
from voronoi_cvp.sampling import stream_for, uniform_sample
from voronoi_cvp.solver import QueryParams, certify, make_query_params, round_to_start

WALL_CLOCK_KEYS = ("wall_clock", "timestamp")


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in WALL_CLOCK_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _json_text(text: str) -> str:
    """Re-serialise JSON without wall-clock keys, keeping key order."""
    return json.dumps(_strip(json.loads(text)), indent=1)


def _csv_text(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ""
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_CLOCK_KEYS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def _normalise(name: str, text: str) -> str:
    if name.endswith(".csv"):
        return _csv_text(text)
    if name.endswith(".jsonl") or not text.strip():
        return text
    return _json_text(text)


def _trace(trace) -> list:
    return [list(trace.start.coeffs), list(trace.final.coeffs), trace_to_jsonl(trace)]


def _walk(cell, x, t, z, alpha, budget=None) -> list:
    """A randomized walk's endpoint and trace, or its exact tie."""
    try:
        w, tr = randomized_straight_line(cell, x, t, z, alpha, max_edges=budget)
        return [repr(w) if w is TRUNCATED else list(w.coeffs), _trace(tr)]
    except TieDetected as e:
        return ["tie", str(e), str(e.alpha), [list(v.coeffs) for v in e.tied]]


def _cvp(basis, t) -> str:
    sols = cvp_bruteforce(basis, t)
    return json.dumps([str(sols.dist_sq), [list(p.coeffs) for p in sols.points]])


def _lattices():
    rng = np.random.Generator(np.random.PCG64(20261018))
    out = [("Z2", LatticeBasis.identity(2))]
    for n in (2, 3, 3, 4):
        out.append((f"rand{n}", random_rational_basis(n, rng)))
    return out, rng


def library_outputs():
    """(label, text) records from direct library calls."""
    records = []
    lattices, rng = _lattices()
    for k, (name, basis) in enumerate(lattices):
        tag = f"{k}:{name}"
        pre = preprocess(basis)
        cell = pre.cell
        records.append((f"{tag}:cell", json.dumps({
            "vr": [[list(v.coeffs), [str(c) for c in v.ambient]] for v in cell.vectors],
            "lambda1_sq": str(cell.lambda1_sq),
            "outer_radius_sq": str(cell.outer_radius_sq),
            "frame": [list(v.coeffs) for v in pre.frame],
        })))
        for j in range(3):
            t = Target.of([c * (1 + 3 * j) for c in random_rational_target(basis, rng).coords])
            cfg = SamplerConfig(seed=1000 * k + j)
            records.append((f"{tag}:{j}:cvp", _cvp(basis, t)))
            for strategy in STRATEGIES:
                res = solve_with_strategy(pre, t, strategy, cfg)
                records.append((f"{tag}:{j}:{strategy}", json.dumps({
                    "point": list(res.point.coeffs),
                    "certified": res.certified,
                    "restarts": res.restarts,
                    "edges": res.edges_total,
                    "phase_b": res.phase_b,
                    "phase_c": res.phase_c,
                    "slicer_steps": res.slicer_steps,
                    "trace": None if res.trace is None else _trace(res.trace),
                })))
            x = round_to_start(pre, t)
            draws = [uniform_sample(cell, cfg, stream_for(cfg, 8, i)) for i in range(3)]
            records.append((f"{tag}:{j}:layers", json.dumps({
                "start": [list(x.coeffs), [str(c) for c in x.ambient]],
                "certify_start": certify(pre, t, x),
                "samples": [[str(c) for c in z.coords] for z in draws],
            })))
            # walks from the origin, whole and under small edge budgets
            origin = LatticePoint.origin(basis.n)
            alpha = make_query_params(pre, t).alpha
            z = uniform_sample(cell, cfg, stream_for(cfg, 7))
            for label, walk in (
                ("mv", lambda: mv_walk(cell, t, origin)),
                ("line", lambda: line_follow(cell, origin.ambient, t.coords, origin,
                                             tie_break="lexicographic")),
            ):
                w, tr = walk()
                records.append((f"{tag}:{j}:{label}-from-origin",
                                json.dumps([list(w.coeffs), _trace(tr)])))
            for budget in (0, 1, 3, 8, None):
                out = _walk(cell, origin, t, z, alpha, budget)
                records.append((f"{tag}:{j}:walk-budget-{budget}", json.dumps(out)))
                if budget is None:
                    continue
                params = QueryParams(alpha=alpha, max_edges=budget, restart_cap=3)
                try:
                    res = query(pre, t, cfg, params=params)
                    out = [list(res.point.coeffs), res.restarts, res.edges_total,
                           res.phase_b, res.phase_c]
                except RestartLimitExceeded as e:
                    out = ["restart-limit", str(e)]
                records.append((f"{tag}:{j}:query-budget-{budget}", json.dumps(out)))
        # crossing rows from the start at the origin to a far target
        t = Target.of([5 * c for c in random_rational_target(basis, rng).coords])
        x = LatticePoint.origin(basis.n)
        cfg = SamplerConfig(seed=77 + k)
        alpha = Fraction(1, 64)
        outcomes = run_crossing_trials(cell, x, t, alpha, 6, cfg)
        rows = crossing_rows(cell, x, t, alpha, outcomes, cfg.seed, "manifest")
        records.append((f"{tag}:crossings", json.dumps(_strip(rows), default=str)))
        records.append((f"{tag}:crossings-cvp", _cvp(basis, t)))
    # an exact tie: the segment from 0 to (2, 2) passes a vertex of the Z^2 cell
    z2 = preprocess(LatticeBasis.identity(2)).cell
    try:
        randomized_straight_line(z2, LatticePoint.origin(2), Target.of([2, 2]), (0, 0), 1)
    except TieDetected as e:
        records.append(("Z2:tie", json.dumps([str(e), str(e.alpha), [list(v.coeffs) for v in e.tied]])))
    # the descent leg on Z^2: one shifted-segment crossing, then two descent
    # crossings (whole, and cut by edge budgets 2 and 1); with Z on the
    # diagonal the descent passes the vertex (1/2, 1/2) after that crossing
    x, t = LatticePoint.from_coeffs(z2.basis, (-1, 0)), Target.of([Fraction(5, 8)] * 2)
    alpha = Fraction(1, 32)
    for budget in (None, 2, 1):
        out = _walk(z2, x, t, (Fraction(-1, 4), Fraction(-1, 5)), alpha, budget)
        records.append((f"Z2:descent-budget-{budget}", json.dumps(out)))
    out = _walk(z2, x, t, (Fraction(-1, 4), Fraction(-1, 4)), alpha)
    records.append(("Z2:descent-tie", json.dumps(out)))
    return records


def cvp_outputs():
    """(label, text) records of `cvp_bruteforce` on targets with ties."""
    half = Fraction(1, 2)
    a2_line = LatticeBasis.from_rows([[1, 0, 1], [-1, 1, 1], [0, -1, 1]])
    d4 = LatticeBasis.from_rows([[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]])
    line = LatticeBasis.from_rows([[Fraction(5, 2)]])
    cases = [
        ("Z2:deep-hole", LatticeBasis.identity(2), [half, half]),
        ("D4:deep-hole", d4, [half] * 4),
        ("line:midpoint", line, [Fraction(5, 4)]),
        ("line:off", line, [Fraction(-7, 3)]),
    ]
    for name, basis in (("A2+line", a2_line), ("D4", d4)):
        for i, v in enumerate(compute_relevant_vectors(basis).vectors):
            cases.append((f"{name}:facet-{i}", basis, [c / 2 for c in v.ambient]))
        cases.append((f"{name}:zero", basis, [0] * basis.n))
        point = LatticePoint.from_coeffs(basis, [2, -1] + [1] * (basis.n - 2))
        cases.append((f"{name}:point", basis, point.ambient))
    return [(f"cvp:{label}", _cvp(basis, Target.of(c))) for label, basis, c in cases]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_outputs():
    """(label, text) records from the CLI, files it writes included.

    The commands run inside a scratch directory on relative paths, since
    the manifests hash the paths they are given.
    """
    records = []
    runs = [
        ["gen", "--kind", "random-rational", "-n", "3", "--seed", "5", "--out", "lat.json"],
        ["preprocess", "lat.json"],
        ["solve", "lat.json", "--target=27/4,-19/3,5/2", "--strategy", "rsl", "--check",
         "--seed", "3", "--trace-out", "rsl.jsonl"],
        ["solve", "lat.json", "--target=27/4,-19/3,5/2", "--strategy", "slicer"],
        ["solve", "lat.json", "--target=-11/2,13/3,22/7", "--strategy", "mv",
         "--trace-out", "mv.jsonl"],
        ["solve", "lat.json", "--target=-11/2,13/3,22/7", "--strategy", "deterministic-line",
         "--trace-out", "line.jsonl"],
        ["crossings", "lat.json", "--trials", "8", "--target=9/2,-17/3,15/4", "--seed", "4",
         "--out", "rows.csv"],
        ["crossings", "lat.json", "--trials", "8", "--target=9/2,-17/3,15/4", "--seed", "4",
         "--start-coeffs=1,-1,0", "--format", "json", "--out", "rows.json"],
        ["crossings", "lat.json", "--trials", "3", "--target=1/3,1/5,-1/7", "--format", "json"],
        ["graphdist", "lat.json", "--pairs", "box:1", "--cap", "6", "--out", "gd.csv"],
        ["graphdist", "lat.json", "--pairs", "random:6", "--format", "json"],
    ]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, argv in enumerate(runs):
                code, out, err = _run_cli(argv)
                records.append((f"cli:{i}:{argv[0]}", json.dumps([code, _normalise("", out), err])))
            for path in sorted(Path(tmp).iterdir()):
                records.append((f"file:{path.name}", _normalise(path.name, path.read_text())))
        finally:
            os.chdir(cwd)
    return records


def main() -> int:
    h = hashlib.sha256()
    for label, text in library_outputs() + cvp_outputs() + cli_outputs():
        h.update(label.encode() + b"\0" + text.encode() + b"\0")
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
