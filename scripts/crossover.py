#!/usr/bin/env python3
"""Where the query stands against enumeration, and where its time goes.

For n = 4..10, on the basis random_rational_basis(n, PCG64(1)), prints:
- preprocess: `compute_relevant_vectors` plus `solver.preprocess` (median
  of three)
- query and brute: median ms of `solver.query` and of `cvp_bruteforce` per
  target, and their ratio (above 1: enumeration is faster)
- the mean split of a query in ms: sample (`uniform_sample`), round
  (`round_to_start`), walk (`randomized_straight_line`) and certify, and
  beside it the deterministic line walk (`mv_walk`) from the rounded start,
  which runs on int64 products

Then, for n = 6 and 7, the mean split of an in-process `solve`
on the cache that `preprocess` wrote, alternating the slicer and mv
strategies: read_basis, load_cell, preprocess, walk
(`experiments.solve_with_strategy`) and output (the rest of the call:
argument parsing, the target, the distance and the JSON text).

Example:
    PYTHONPATH=src python scripts/crossover.py --targets 30
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from voronoi_cvp import cli, experiments, lattice, navigation, solver, voronoi
from voronoi_cvp.oracles import cvp_bruteforce
from voronoi_cvp.sampling import SamplerConfig

SEED = 1  # the bases are random_rational_basis(n, PCG64(SEED))
QUERY_DIMS = range(4, 11)
CLI_DIMS = (6, 7)
REPEATS = 3  # preprocess timings per dimension


@contextlib.contextmanager
def timed(totals: dict, *sites):
    """Add the time of every call to module.name to totals[label], for (module, name, label)."""
    saved = []
    for module, name, label in sites:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _label=label, **kwargs):
            t0 = perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[_label] += perf_counter() - t0

        saved.append((module, name, fn))
        setattr(module, name, wrapper)
    try:
        yield totals
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def ms(seconds: float) -> float:
    return round(1e3 * seconds, 4)


def query_row(n: int, targets: int) -> dict:
    basis = lattice.random_rational_basis(n, np.random.Generator(np.random.PCG64(SEED)))
    setup = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        pre = solver.preprocess(basis, cell=voronoi.compute_relevant_vectors(basis))
        setup.append(perf_counter() - t0)
    rng = np.random.Generator(np.random.PCG64([SEED, n]))
    ts = [lattice.random_rational_target(basis, rng) for _ in range(targets)]
    split = defaultdict(float)
    query, brute, line = [], [], []
    sites = [(solver, "uniform_sample", "sample"), (solver, "round_to_start", "round"),
             (solver, "randomized_straight_line", "walk"), (solver, "certify", "certify")]
    for i, t in enumerate(ts):
        with timed(split, *sites):
            t0 = perf_counter()
            res = solver.query(pre, t, SamplerConfig(seed=SEED + i))
            query.append(perf_counter() - t0)
        t0 = perf_counter()
        ref = cvp_bruteforce(basis, t)
        brute.append(perf_counter() - t0)
        if res.point not in ref.points:
            raise AssertionError(f"n = {n}: the query's answer is not a closest vector")
        x = solver.round_to_start(pre, t)
        t0 = perf_counter()
        navigation.mv_walk(pre.cell, t, x)
        line.append(perf_counter() - t0)
    q, b = statistics.median(query), statistics.median(brute)
    return {
        "n": n, "vr": len(pre.cell.coeffs), "preprocess_ms": ms(statistics.median(setup)),
        "query_ms": ms(q), "brute_ms": ms(b), "query_over_brute": round(q / b, 3),
        **{f"{k}_ms": ms(split[k] / targets) for k in ("sample", "round", "walk", "certify")},
        "line_walk_ms": ms(sum(line) / targets),
    }


def cli_row(n: int, targets: int, workdir: Path) -> dict:
    basis = lattice.random_rational_basis(n, np.random.Generator(np.random.PCG64(SEED)))
    path = workdir / f"basis-{n}.json"
    lattice.write_basis(basis, path)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["preprocess", str(path)]) != 0:
            raise RuntimeError(f"preprocess {path} failed")
    rng = np.random.Generator(np.random.PCG64([SEED, n]))
    split, total = defaultdict(float), 0.0
    sites = [(lattice, "read_basis", "read_basis"), (voronoi, "load_cell", "load_cell"),
             (solver, "preprocess", "preprocess"),
             (experiments, "solve_with_strategy", "walk")]
    for i in range(targets):
        t = lattice.random_rational_target(basis, rng)
        argv = ["solve", str(path), "--target=" + ",".join(map(str, t.coords)),
                "--strategy", ("slicer", "mv")[i % 2]]
        with timed(split, *sites), contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            total += perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"solve exited {code}")
    split["output"] = total - sum(split.values())
    return {"n": n, "solve_ms": ms(total / targets),
            **{f"{k}_ms": ms(v / targets) for k, v in split.items()}}


def print_table(rows: list[dict]) -> None:
    keys = list(rows[0])
    print("  ".join(f"{k:>{max(len(k), 8)}}" for k in keys))
    for row in rows:
        print("  ".join(f"{row[k]:>{max(len(k), 8)}}" for k in keys))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--targets", type=int, default=30, help="per dimension")
    ap.add_argument("--json", action="store_true", help="also print the rows as one JSON line")
    args = ap.parse_args()

    queries = [query_row(n, args.targets) for n in QUERY_DIMS]
    print_table(queries)
    with tempfile.TemporaryDirectory() as tmp:
        solves = [cli_row(n, args.targets, Path(tmp)) for n in CLI_DIMS]
    print()
    print_table(solves)
    if args.json:
        print(json.dumps({"query": queries, "cli_solve": solves}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
