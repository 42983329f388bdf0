"""Command-line front end.

Subcommands: gen, preprocess, solve, crossings, graphdist.  Global flags
(--seed, --precision-bits, --dim-cap, --out, --format, --check) may also be
set through VORONOI_CVP_* environment variables; a flag always wins.

Exit codes: 0 success, 2 input error, 3 cap exceeded, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import experiments, lattice, linalg, sampling, solver, voronoi
from .errors import (
    ContractViolation,
    InputError,
    RestartLimitExceeded,
    SizeCapError,
)
from .lattice import LatticeBasis, LatticePoint, Target
from .navigation import trace_to_jsonl
from .oracles import cvp_bruteforce

ENV_PREFIX = "VORONOI_CVP_"


# ---------------------------------------------------------------------------
# argument converters: malformed values fail at parse time with exit 2


class FlagError(InputError, argparse.ArgumentTypeError):
    """A malformed flag value; argparse reports its message as given."""


class _Parser(argparse.ArgumentParser):
    """Reports every parse failure as an InputError instead of exiting."""

    def error(self, message):
        raise InputError(message)


def _int_at_least(lo: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise FlagError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise FlagError(f"must be at least {lo}, got {value}")
        return value

    return convert


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise FlagError(f"bad integer list {text!r}") from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise FlagError(f"bad rational {text!r}") from None


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",")]


def _alpha(text: str) -> Fraction:
    alpha = _rational(text)
    if not 0 < alpha <= 1:
        raise FlagError(f"must lie in (0, 1], got {text}")
    return alpha


def _pairs_spec(text: str) -> tuple[str, object]:
    kind, sep, arg = text.partition(":")
    if sep and kind in ("box", "random"):
        return kind, _int_at_least(0)(arg)
    if sep and kind == "file":
        return kind, arg
    raise FlagError(f"bad spec {text!r}; expected box:K, random:N or file:PATH")


def _output_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise FlagError(f"expected csv or json, got {text!r}")
    return text


#: Flags whose values may begin with '-' (negative rationals), which argparse
#: would otherwise read as an option; main() passes them as --flag=value.
_SIGNED_VALUE_FLAGS = ("--target", "--start-coeffs")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out = []
    args = iter(argv)
    for arg in args:
        if arg in _SIGNED_VALUE_FLAGS:
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


#: Env-backed flags: an absent one is read per call from VORONOI_CVP_<NAME>, else the default.
_ENV_FLAGS = {
    "seed": (_int_at_least(0), "0"),
    "precision_bits": (_int_at_least(sampling.MIN_PRECISION_BITS), "128"),
    "dim_cap": (_int_at_least(1), "14"),
    "format": (_output_format, "csv"),
}


def _resolve_env_flags(args) -> None:
    for name, (convert, default) in _ENV_FLAGS.items():
        if getattr(args, name) is None:
            try:
                setattr(args, name, convert(os.environ.get(ENV_PREFIX + name.upper(), default)))
            except FlagError as e:
                raise InputError(f"argument --{name.replace('_', '-')}: {e}") from None


def _common_parser() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    for name, (convert, _) in _ENV_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=convert)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument(
        "--check", action="store_true", help="cross-check against the brute-force oracle"
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = _Parser(prog="voronoi-cvp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common], help="generate or ingest a basis file")
    g.add_argument(
        "--kind",
        choices=["integer-identity", "random-rational", "from-file"],
        required=True,
    )
    g.add_argument("-n", "--dimension", type=_int_at_least(1))
    g.add_argument("--source", help="input basis file for --kind from-file")
    g.add_argument("--max-numerator", type=_int_at_least(0), default=5)
    g.add_argument("--max-denominator", type=_int_at_least(1), default=3)
    g.add_argument("--defect-cap", type=_int_at_least(1), default=16)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("preprocess", parents=[common], help="compute the relevant vectors")
    p.add_argument("basis", help="basis JSON file")
    p.set_defaults(func=cmd_preprocess)

    s = sub.add_parser("solve", parents=[common], help="closest-vector query")
    s.add_argument("basis")
    s.add_argument(
        "--target", type=_rational_list, help="comma-separated rationals, e.g. 3/10,-7/10"
    )
    s.add_argument("--target-file", help='JSON file {"t": [...]}')
    s.add_argument(
        "--strategy", choices=list(experiments.STRATEGIES), default="rsl"
    )
    s.add_argument("--trace-out", help="write the walk trace as JSON lines")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser(
        "crossings", parents=[common], help="crossing-count statistics for the randomized walk"
    )
    c.add_argument("basis")
    c.add_argument("--trials", type=_int_at_least(0), required=True)
    c.add_argument("--target", type=_rational_list, help="comma-separated rationals")
    c.add_argument("--target-file")
    c.add_argument(
        "--start-coeffs",
        type=_int_list,
        help="comma-separated integer coefficients of the start point (default: rounded target)",
    )
    c.add_argument(
        "--alpha", type=_alpha, default="1/32", help="truncation parameter, a rational in (0,1]"
    )
    c.add_argument("--jobs", type=_int_at_least(1), default=1)
    c.set_defaults(func=cmd_crossings)

    d = sub.add_parser(
        "graphdist", parents=[common], help="graph distance vs cell norm survey"
    )
    d.add_argument("basis")
    d.add_argument(
        "--pairs",
        type=_pairs_spec,
        required=True,
        help="box:K (origin to every point in [-K,K]^n), random:N, or file:PATH",
    )
    d.add_argument("--cap", type=_int_at_least(0), default=8, help="BFS distance cap")
    d.set_defaults(func=cmd_graphdist)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _load_target(args, n: int) -> Target:
    if args.target and args.target_file:
        raise InputError("give --target or --target-file, not both")
    if args.target:
        t = Target.of(args.target)
    elif args.target_file:
        t = lattice.read_target(args.target_file)
    else:
        raise InputError("a target is required (--target or --target-file)")
    if t.n != n:
        raise InputError(f"target has dimension {t.n}, basis has {n}")
    return t


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _sampler_config(args) -> sampling.SamplerConfig:
    return sampling.SamplerConfig(seed=args.seed, precision_bits=args.precision_bits)


def _manifest(args, command: str, params: dict, input_hashes: dict) -> experiments.RunManifest:
    return experiments.RunManifest(
        command=command,
        params=params,
        input_hashes=input_hashes,
        seed=args.seed,
        precision_bits=args.precision_bits,
    )


def _write_manifest_sidecar(args, manifest: experiments.RunManifest) -> None:
    if args.out:
        path = Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json")
        path.write_text(json.dumps(manifest.to_obj(), indent=1) + "\n")


def _cache_path(basis_path: str) -> Path:
    return Path(basis_path).with_suffix(Path(basis_path).suffix + ".vr.json")


def _load_or_compute_cell(args, basis: LatticeBasis, basis_path: str):
    """The cached cell if it loads; else a fresh one, which replaces a rejected cache."""
    cache = _cache_path(basis_path)
    if not cache.exists():
        return voronoi.compute_relevant_vectors(basis, dim_cap=args.dim_cap)
    try:
        return voronoi.load_cell(cache, basis)
    except InputError as e:
        print(f"warning: ignoring relevant-vector cache {cache}: {e}", file=sys.stderr)
    cell = voronoi.compute_relevant_vectors(basis, dim_cap=args.dim_cap)
    try:
        voronoi.save_cell(cell, cache)
    except OSError as e:
        print(f"warning: cannot rewrite relevant-vector cache {cache}: {e}", file=sys.stderr)
    return cell


def _rows_to_text(args, columns, rows, manifest) -> str:
    if args.format == "json":
        return json.dumps(
            {"manifest": manifest.to_obj(), "records": rows}, indent=1, default=str
        ) + "\n"
    import csv as _csv
    import io

    buf = io.StringIO()
    w = _csv.DictWriter(buf, fieldnames=list(columns), restval="")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "from-file":
        if not args.source:
            raise InputError("--kind from-file requires --source")
        basis = lattice.read_basis(args.source)  # validates rank
    else:
        if args.dimension is None:
            raise InputError("gen requires -n")
        if args.dimension > args.dim_cap:
            raise SizeCapError(
                f"dimension {args.dimension} exceeds cap {args.dim_cap}"
            )
        if kind == "integer-identity":
            basis = LatticeBasis.identity(args.dimension)
        else:
            stream = sampling.stream_for(_sampler_config(args), 0)
            basis = lattice.random_rational_basis(
                args.dimension,
                stream.gen,
                max_numerator=args.max_numerator,
                max_denominator=args.max_denominator,
                defect_cap=args.defect_cap,
            )
    obj = lattice.basis_to_obj(basis)
    _emit(args, json.dumps(obj, indent=1) + "\n")
    manifest = _manifest(
        args,
        "gen",
        {
            "kind": kind,
            "n": basis.n,
            "max_numerator": args.max_numerator,
            "max_denominator": args.max_denominator,
            "defect_cap": args.defect_cap,
        },
        {"basis": lattice.basis_hash(basis)},
    )
    if args.out:
        sys.stdout.write(json.dumps(manifest.to_obj(), indent=1) + "\n")
    return 0


def cmd_preprocess(args) -> int:
    basis = lattice.read_basis(args.basis)
    t0 = time.perf_counter()
    cell = voronoi.compute_relevant_vectors(basis, dim_cap=args.dim_cap)
    pre = solver.preprocess(basis, cell=cell)
    wall = time.perf_counter() - t0
    cache = Path(args.out) if args.out else _cache_path(args.basis)
    voronoi.save_cell(cell, cache)
    manifest = _manifest(
        args, "preprocess", {"basis": args.basis}, {"basis": lattice.basis_hash(basis)}
    )
    n = basis.n
    stats = {
        "n": n,
        "vr_count": len(cell.vectors),
        "facet_bound": 2 * (2**n - 1),
        "bound_ok": len(cell.vectors) <= 2 * (2**n - 1),
        "lambda1_sq": str(cell.lambda1_sq),
        "mu_upper_sq": str(pre.frame_sum_sq / 4),
        "basis_hash": lattice.basis_hash(basis),
        "cache_file": str(cache),
        "wall_clock": round(wall, 6),
        "manifest_hash": manifest.stable_hash(),
    }
    sys.stdout.write(json.dumps(stats, indent=1) + "\n")
    return 0


def cmd_solve(args) -> int:
    if args.trace_out and args.strategy == "slicer":
        raise InputError("--trace-out needs a walk; the slicer strategy has no trace")
    basis = lattice.read_basis(args.basis)
    t = _load_target(args, basis.n)
    cell = _load_or_compute_cell(args, basis, args.basis)
    pre = solver.preprocess(basis, cell=cell)
    cfg = _sampler_config(args)
    result = experiments.solve_with_strategy(pre, t, args.strategy, cfg)
    dist_sq = linalg.norm_sq(linalg.sub(t.coords, result.point.ambient))
    manifest = _manifest(
        args,
        "solve",
        {"strategy": args.strategy, "target": [str(c) for c in t.coords]},
        {"basis": lattice.basis_hash(basis)},
    )
    out = {
        "strategy": args.strategy,
        "y_coeffs": list(result.point.coeffs),
        "y": [str(c) for c in result.point.ambient],
        "dist_sq": str(dist_sq),
        "certified": result.certified,
        "restarts": result.restarts,
        "edges": result.edges_total,
        "phase_b": result.phase_b,
        "phase_c": result.phase_c,
        "slicer_steps": result.slicer_steps,
        "seed": args.seed,
        "bits_basis": pre.bits_basis,
        "bits_target": t.encoding_length,
        "manifest_hash": manifest.stable_hash(),
    }
    if args.strategy == "rsl":
        out["alpha"] = str(solver.make_query_params(pre, t).alpha)
    if args.check:
        oracle = cvp_bruteforce(basis, t)
        out["oracle-match"] = oracle.dist_sq == dist_sq
        out["oracle_dist_sq"] = str(oracle.dist_sq)
    if args.trace_out:
        Path(args.trace_out).write_text(trace_to_jsonl(result.trace))
    _emit(args, json.dumps(out, indent=1) + "\n")
    return 0


def cmd_crossings(args) -> int:
    basis = lattice.read_basis(args.basis)
    t = _load_target(args, basis.n)
    alpha = args.alpha
    cell = _load_or_compute_cell(args, basis, args.basis)
    pre = solver.preprocess(basis, cell=cell)
    if args.start_coeffs:
        if len(args.start_coeffs) != basis.n:
            raise InputError("start coefficient count does not match the dimension")
        x = LatticePoint.from_coeffs(basis, args.start_coeffs)
    else:
        x = solver.round_to_start(pre, t)
    cfg = _sampler_config(args)
    manifest = _manifest(
        args,
        "crossings",
        {
            "target": [str(c) for c in t.coords],
            "start": list(x.coeffs),
            "alpha": str(alpha),
            "trials": args.trials,
        },
        {"basis": lattice.basis_hash(basis)},
    )
    outcomes = experiments.run_crossing_trials(
        cell, x, t, alpha, args.trials, cfg, jobs=args.jobs
    )
    rows = experiments.crossing_rows(
        cell, x, t, alpha, outcomes, args.seed, manifest.stable_hash()
    )
    _emit(args, _rows_to_text(args, experiments.CROSSING_COLUMNS, rows, manifest))
    _write_manifest_sidecar(args, manifest)
    return 0


def _coeff_pair(row, n: int) -> list:
    """One pairs-file row: two JSON lists of n integers (booleans are not integers)."""
    if not (
        isinstance(row, list)
        and len(row) == 2
        and all(isinstance(c, list) and len(c) == n for c in row)
        and all(type(x) is int for c in row for x in c)
    ):
        raise ValueError(f"each row must be two lists of {n} integers, got {json.dumps(row)}")
    return row


def _parse_pairs(args, basis: LatticeBasis) -> list[tuple[LatticePoint, LatticePoint]]:
    kind, arg = args.pairs
    n = basis.n
    origin = LatticePoint.origin(n)
    if kind == "box":
        if (2 * arg + 1) ** n > 200_000:
            raise SizeCapError("pair box too large")
        from itertools import product

        box = product(range(-arg, arg + 1), repeat=n)
        return [(origin, LatticePoint.from_coeffs(basis, c)) for c in box if any(c)]
    if kind == "random":
        gen = sampling.stream_for(_sampler_config(args), 1).gen

        def draw() -> LatticePoint:
            return LatticePoint.from_coeffs(basis, [int(gen.integers(-3, 4)) for _ in range(n)])

        return [(draw(), draw()) for _ in range(arg)]
    with open(arg) as f:
        try:
            return [
                tuple(LatticePoint.from_coeffs(basis, c) for c in _coeff_pair(row, n))
                for row in json.load(f)
            ]
        except (TypeError, ValueError) as e:
            raise InputError(f"bad pairs file {arg}: {e}") from None


def cmd_graphdist(args) -> int:
    basis = lattice.read_basis(args.basis)
    cell = _load_or_compute_cell(args, basis, args.basis)
    pairs = _parse_pairs(args, basis)
    manifest = _manifest(
        args,
        "graphdist",
        {"pairs": "%s:%s" % args.pairs, "cap": args.cap},
        {"basis": lattice.basis_hash(basis)},
    )
    rows = experiments.graph_distance_rows(cell, pairs, args.cap, manifest.stable_hash())
    _emit(args, _rows_to_text(args, experiments.GRAPHDIST_COLUMNS, rows, manifest))
    _write_manifest_sidecar(args, manifest)
    return 0


PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = PARSER.parse_args(_attach_signed_values(argv))
        _resolve_env_flags(args)
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ContractViolation, RestartLimitExceeded, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
