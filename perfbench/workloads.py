"""The benchmark's four workloads, built from a seed and driven only through
the package's public functions.

Each workload is a fixed list of ops (one closed-loop caller: the next op
starts when the previous one returned).  Bases, targets and every sampler
seed come from the workload seed, so one seed gives bit-identical work and
only machine noise varies between its runs.  Each workload spreads its ops
over many lattices, because costs vary between random bases of one
dimension (the rejection sampler's by about 3x), and shuffles them, so a
slow spell of a shared machine does not land on one group of ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import zlib
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from voronoi_cvp import cli, experiments, lattice, linalg, oracles, solver, voronoi
from voronoi_cvp.errors import ContractViolation, RestartLimitExceeded, TieDetected
from voronoi_cvp.lattice import LatticePoint, Target
from voronoi_cvp.sampling import SamplerConfig

#: Errors that count as a failed op instead of ending the run.
OP_ERRORS = (RestartLimitExceeded, TieDetected, ContractViolation)

# Bound before any tracer is installed, so reference answers are never traced.
_reference_cvp = oracles.cvp_bruteforce


def answer_ok(pre, t: Target, point: LatticePoint, ref) -> bool:
    """The correctness gate: `point` is certified and as close as brute force."""
    return solver.certify(pre, t, point) and (
        linalg.norm_sq(linalg.sub(t.coords, point.ambient)) == ref.dist_sq
    )


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, zlib.crc32(name.encode())]))


def _sampler_config(rng) -> SamplerConfig:
    return SamplerConfig(seed=int(rng.integers(2**63)))


def _target_text(t: Target) -> str:
    return ",".join(str(c) for c in t.coords)


class Workload:
    """Inputs, the timed setup and ops, and the untimed gate of one workload.

    Subclasses fill `bases` (one per lattice) and `ops` in `__init__`, and
    define `run(i)`, `check(i, result)` and `work(result)`.
    """

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.bases: list = []
        self.ops: list = []
        self.pre: list = []
        self.ref_calls = 0
        self.ref_seconds = 0.0
        self._refs: dict = {}

    def shuffle(self, rng) -> None:
        """Interleave the ops of all lattices and dimensions."""
        self.ops = [self.ops[k] for k in rng.permutation(len(self.ops))]

    def setup(self) -> None:
        self.pre = [
            solver.preprocess(b, cell=voronoi.compute_relevant_vectors(b)) for b in self.bases
        ]

    def gate_pre(self, li: int):
        """The preprocessed lattice the gate certifies against."""
        return self.pre[li]

    def vr_count(self) -> int:
        return sum(len(self.gate_pre(li).cell.vectors) for li in range(len(self.bases)))

    def reference(self, li: int, t: Target):
        """Brute-force closest-vector set, computed once per (lattice, target) and timed."""
        key = (li, t.coords)
        if key not in self._refs:
            start = perf_counter()
            self._refs[key] = _reference_cvp(self.bases[li], t)
            self.ref_seconds += perf_counter() - start
            self.ref_calls += 1
        return self._refs[key]

    def gate(self, results: list) -> list[bool]:
        """Per-op verdicts for one pass; None marks an op that raised."""
        return [r is not None and self.check(i, r) for i, r in enumerate(results)]

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for b in self.bases:
            h.update(lattice.basis_hash(b).encode())
        for op in self.ops:
            h.update(repr(op).encode())
        return h.hexdigest()


class RslQuery(Workload):
    name = "rsl-query"
    why = (
        "the paper's certified query on warm preprocessed lattices, n = 4 and 5; "
        "the rejection sampler does most of the work"
    )
    # lattices per dimension and targets per lattice
    SIZES = {4: (100, 15), 5: (15, 1)}
    TINY = {4: (3, 4), 5: (1, 1)}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed)
        rng = _rng(seed, self.name)
        for n, (lattices, targets) in (self.TINY if tiny else self.SIZES).items():
            for _ in range(lattices):
                b = lattice.random_rational_basis(n, rng)
                self.bases.append(b)
                for _ in range(targets):
                    t = lattice.random_rational_target(b, rng)
                    self.ops.append((len(self.bases) - 1, t, _sampler_config(rng)))
        self.shuffle(rng)

    def run(self, i: int):
        li, t, cfg = self.ops[i]
        return solver.query(self.pre[li], t, cfg)

    def check(self, i: int, res) -> bool:
        li, t, _ = self.ops[i]
        return answer_ok(self.gate_pre(li), t, res.point, self.reference(li, t))

    def work(self, res) -> dict:
        return {"restarts": res.restarts, "crossings_b": res.phase_b, "crossings_c": res.phase_c}


class CrossingsFar(Workload):
    name = "crossings-far"
    why = (
        "the paper's crossing-count harness on far targets (cell norm 20-25), n = 2 and 3: "
        "many walk steps over a small cell"
    )
    ALPHA = Fraction(1, 1024)
    # lattices per dimension, targets per lattice, one-trial ops per target
    SIZES = {2: (24, 1, 30), 3: (48, 1, 30)}
    TINY = {2: (1, 1, 6), 3: (1, 1, 6)}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed)
        rng = _rng(seed, self.name)
        targets = 0
        for n, (lattices, per_lattice, trials) in (self.TINY if tiny else self.SIZES).items():
            for _ in range(lattices):
                b = lattice.random_rational_basis(n, rng)
                self.bases.append(b)
                cell = voronoi.compute_relevant_vectors(b)  # input generation, untimed
                for _ in range(per_lattice):
                    t = self._far_target(cell, rng)
                    for _ in range(trials):
                        self.ops.append((len(self.bases) - 1, targets, t, _sampler_config(rng)))
                    targets += 1
        self.shuffle(rng)

    @staticmethod
    def _far_target(cell, rng) -> Target:
        """A target at cell norm ~U[20, 25] from the origin, on a 1/64 grid."""
        n = cell.n
        direction = [Fraction(int(rng.integers(1, 1001)), 1000)]
        direction += [Fraction(int(rng.integers(-1000, 1001)), 1000) for _ in range(n - 1)]
        norm = Fraction(int(rng.integers(20 * 64, 25 * 64 + 1)), 64)
        s = norm / voronoi.voronoi_norm(cell, direction)
        return Target.of([Fraction(round(s * x * 64), 64) for x in direction])

    def run(self, i: int):
        li, _, t, cfg = self.ops[i]
        cell = self.pre[li].cell
        origin = LatticePoint.origin(cell.n)
        return experiments.run_crossing_trials(cell, origin, t, self.ALPHA, 1, cfg)[0]

    def gate(self, results: list) -> list[bool]:
        """Each target's trials must meet both crossing bounds at three standard errors."""
        groups = defaultdict(list)
        for op, r in zip(self.ops, results):
            groups[op[:3]].append(r)
        verdict = {}
        for (li, ti, t), outs in groups.items():
            cell = self.pre[li].cell
            s = experiments.summarize_crossings(
                [o for o in outs if o is not None],
                experiments.phase_b_bound(cell, LatticePoint.origin(cell.n), t),
                experiments.phase_c_bound(cell.n, self.ALPHA),
            )
            verdict[ti] = s.verdict_b and s.verdict_c
        return [r is not None and verdict[op[1]] for op, r in zip(self.ops, results)]

    def work(self, res) -> dict:
        return {
            "crossings_b": res.phase_b,
            "crossings_c": res.phase_c,
            "resamples": res.resamples,
        }


class WalkDeterministic(Workload):
    name = "walk-deterministic"
    why = (
        "slicer, mv and deterministic-line walks at n = 7 and 8: few steps over a large cell, "
        "and the setup-heavy workload"
    )
    STRATEGIES = ("slicer", "mv", "deterministic-line")
    SIZES = {7: (2, 50), 8: (2, 50)}
    TINY = {4: (1, 4), 5: (1, 4)}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed)
        rng = _rng(seed, self.name)
        for n, (lattices, targets) in (self.TINY if tiny else self.SIZES).items():
            for _ in range(lattices):
                b = lattice.random_rational_basis(n, rng)
                self.bases.append(b)
                for _ in range(targets):
                    t = lattice.random_rational_target(b, rng)
                    for s in self.STRATEGIES:
                        self.ops.append((len(self.bases) - 1, t, s, _sampler_config(rng)))
        self.shuffle(rng)

    def run(self, i: int):
        li, t, strategy, cfg = self.ops[i]
        return experiments.solve_with_strategy(self.pre[li], t, strategy, cfg)

    def check(self, i: int, res) -> bool:
        li, t, _, _ = self.ops[i]
        return answer_ok(self.gate_pre(li), t, res.point, self.reference(li, t))

    def work(self, res) -> dict:
        return {
            "edges": res.edges_total,
            "crossings_b": res.phase_b,
            "crossings_c": res.phase_c,
            "slicer_steps": res.slicer_steps,
        }


class CliSolve(Workload):
    name = "cli-solve"
    why = (
        "in-process `solve` command at n = 6 and 7 on the cache `preprocess` wrote; "
        "the only workload that measures cli and file I/O"
    )
    STRATEGIES = ("slicer", "mv")
    # An op's cost is nearly fixed per lattice (cache load plus frame search),
    # so percentiles need many lattices: n = 6 carries them, and the 8 n = 7
    # ops all lie above p95, which falls 10 ops inside the n = 6 group.
    SIZES = {6: (16, 22), 7: (2, 4)}
    TINY = {3: (1, 4), 4: (1, 2)}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed)
        rng = _rng(seed, self.name)
        self.paths: list[str] = []
        for n, (lattices, targets) in (self.TINY if tiny else self.SIZES).items():
            for _ in range(lattices):
                b = lattice.random_rational_basis(n, rng)
                path = workdir / f"basis-{len(self.bases)}.json"
                lattice.write_basis(b, path)
                self.bases.append(b)
                self.paths.append(str(path))
                for k in range(targets):
                    t = lattice.random_rational_target(b, rng)
                    strategy = self.STRATEGIES[k % len(self.STRATEGIES)]
                    self.ops.append((len(self.bases) - 1, t, strategy))
        self.shuffle(rng)

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self) -> None:
        for path in self.paths:
            code, text = self._call(["preprocess", path])
            if code != 0:
                raise RuntimeError(f"preprocess {path} exited {code}: {text}")
        self.pre = []

    def gate_pre(self, li: int):
        """Loaded from the cache the setup wrote (load_cell validates it)."""
        while len(self.pre) <= li:
            k = len(self.pre)
            cell = voronoi.load_cell(self.paths[k] + ".vr.json", self.bases[k])
            self.pre.append(solver.preprocess(self.bases[k], cell=cell))
        return self.pre[li]

    def run(self, i: int):
        li, t, strategy = self.ops[i]
        # `--target=` form: argparse reads a value with a leading '-' as a flag
        return self._call(
            ["solve", self.paths[li], "--target=" + _target_text(t), "--strategy", strategy]
        )

    def check(self, i: int, res) -> bool:
        li, t, _ = self.ops[i]
        code, text = res
        if code != 0:
            return False
        out = json.loads(text)
        ref = self.reference(li, t)
        point = LatticePoint.from_coeffs(self.bases[li], out["y_coeffs"])
        return (
            out["certified"] is True
            and Fraction(out["dist_sq"]) == ref.dist_sq
            and answer_ok(self.gate_pre(li), t, point, ref)
        )

    def work(self, res) -> dict:
        code, text = res
        out = json.loads(text) if code == 0 else {}
        return {
            "edges": out.get("edges", 0),
            "crossings_b": out.get("phase_b", 0),
            "crossings_c": out.get("phase_c", 0),
            "slicer_steps": out.get("slicer_steps", 0),
        }


WORKLOADS = {w.name: w for w in (RslQuery, CrossingsFar, WalkDeterministic, CliSolve)}


def pass_work(wl: Workload, results: list) -> dict:
    """Exact work counts of one pass: the sum of each op's counts."""
    total = Counter(ops=len(results), raised=sum(r is None for r in results))
    for r in results:
        if r is not None:
            total.update(wl.work(r))
    return dict(sorted(total.items()))
