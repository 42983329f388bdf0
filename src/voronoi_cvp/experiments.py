"""Experiment drivers: crossing statistics, graph-distance surveys, manifests.

These produce machine-readable records validating the walk's crossing-count
guarantees: along the shifted segment the mean number of crossings is at
most (n/2) ||t-x||_V, and the descent to t + alpha*Z crosses at most
(e^2/(sqrt(2)-1)) n (2 + ln(4/alpha)) cells on average.  Verdicts compare
empirical means against those bounds at three standard errors.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from math import exp, log, sqrt
from typing import Sequence

from . import __version__, linalg
from .errors import InputError, RestartLimitExceeded
from .lattice import LatticePoint, Target, basis_hash, canonical_json
from .navigation import (
    count_crossings,
    iterative_slicer,
    line_follow,
    mv_walk,
)
from .oracles import graph_distance_bfs
from .sampling import SamplerConfig, stream_for
from .solver import (
    RESTART_CAP,
    PreprocessedLattice,
    SolveResult,
    certify,
    query,
    round_to_start,
    walks,
)
from .voronoi import VoronoiCellData, voronoi_norm

# Not called here: perfbench/tracing.py looks both names up on this module,
# so they must stay importable from it.
from .navigation import randomized_straight_line  # noqa: F401
from .sampling import uniform_sample  # noqa: F401

#: Constant in the descent-phase crossing bound.
PHASE_C_CONSTANT = exp(2.0) / (sqrt(2.0) - 1.0)

TOOL_NAME = "voronoi-cvp"


def phase_b_bound(cell: VoronoiCellData, x: LatticePoint, t: Target) -> Fraction:
    """Exact bound (n/2) ||t - x||_V on mean crossings of the shifted segment."""
    return Fraction(cell.n, 2) * voronoi_norm(cell, linalg.sub(t.coords, x.ambient_on(cell.basis)))


def phase_c_bound(n: int, alpha: Fraction) -> float:
    """Bound (e^2/(sqrt(2)-1)) n (2 + ln(4/alpha)) on mean descent crossings."""
    return PHASE_C_CONSTANT * n * (2.0 + log(4.0 / float(alpha)))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run bit-for-bit (except wall-clock).

    The embedded hash covers only the reproducibility-relevant fields, so
    reruns with identical inputs produce identical records.
    """

    command: str
    params: dict
    input_hashes: dict
    seed: int
    precision_bits: int
    tool: str = TOOL_NAME
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def stable_obj(self) -> dict:
        obj = asdict(self)
        del obj["timestamp"]
        return obj

    def stable_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.stable_obj())).hexdigest()

    def to_obj(self) -> dict:
        return {**asdict(self), "manifest_hash": self.stable_hash()}


# ---------------------------------------------------------------------------
# crossing trials


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    phase_b: int
    phase_c: int
    resamples: int
    wall_clock: float


_POOL_STATE: dict = {}


def _run_single_trial(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    alpha: Fraction,
    cfg: SamplerConfig,
    trial: int,
) -> TrialOutcome:
    start = time.perf_counter()
    walk = next(walks(cell, x, t, alpha, cfg, stream_for(cfg, trial)), None)
    if walk is None:
        raise RestartLimitExceeded(f"trial {trial}: all {RESTART_CAP} cell samples hit a tie")
    resample, _, trace, _ = walk
    b, c = count_crossings(trace)
    return TrialOutcome(
        trial=trial,
        phase_b=b,
        phase_c=c,
        resamples=resample,
        wall_clock=time.perf_counter() - start,
    )


def _pool_init(cell, x, t, alpha, cfg):
    _POOL_STATE.update(cell=cell, x=x, t=t, alpha=alpha, cfg=cfg)


def _pool_run(trial: int) -> TrialOutcome:
    s = _POOL_STATE
    return _run_single_trial(s["cell"], s["x"], s["t"], s["alpha"], s["cfg"], trial)


def run_crossing_trials(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    alpha,
    n_trials: int,
    cfg: SamplerConfig,
    jobs: int = 1,
) -> list[TrialOutcome]:
    """Independent randomized walks from x to t + alpha*Z, one per trial.

    Trial i draws from stream (seed, i, resample); exact ties are resampled
    and counted, and a trial whose RESTART_CAP samples all tie raises
    RestartLimitExceeded.  Results are identical for any job count: workers only
    change who computes which index.
    """
    alpha = linalg.frac(alpha)
    if jobs <= 1 or n_trials <= 1:
        return [
            _run_single_trial(cell, x, t, alpha, cfg, i) for i in range(n_trials)
        ]
    # the fork start method launches every worker at the first submit
    workers = min(jobs, n_trials)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(cell, x, t, alpha, cfg)
    ) as ex:
        chunk = max(1, n_trials // (workers * 4))
        return list(ex.map(_pool_run, range(n_trials), chunksize=chunk))


@dataclass(frozen=True)
class CrossingSummary:
    trials: int
    mean_b: float
    se_b: float
    bound_b: Fraction
    verdict_b: bool
    mean_c: float
    se_c: float
    bound_c: float
    verdict_c: bool


def _mean_se(values: Sequence[int]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, sqrt(var / n)


def summarize_crossings(
    outcomes: Sequence[TrialOutcome],
    bound_b: Fraction,
    bound_c: float,
) -> CrossingSummary:
    """Means, standard errors, and three-sigma bound verdicts."""
    bs = [o.phase_b for o in outcomes]
    cs = [o.phase_c for o in outcomes]
    mean_b, se_b = _mean_se(bs)
    mean_c, se_c = _mean_se(cs)
    return CrossingSummary(
        trials=len(outcomes),
        mean_b=mean_b,
        se_b=se_b,
        bound_b=bound_b,
        verdict_b=mean_b <= float(bound_b) + 3.0 * se_b,
        mean_c=mean_c,
        se_c=se_c,
        bound_c=bound_c,
        verdict_c=mean_c <= bound_c + 3.0 * se_c,
    )


CROSSING_COLUMNS = [
    "row_type",
    "trial",
    "lattice_hash",
    "n",
    "target",
    "start",
    "strategy",
    "alpha",
    "phase_b",
    "phase_c",
    "bound_b",
    "bound_c",
    "resamples",
    "seed",
    "wall_clock",
    "mean_b",
    "se_b",
    "verdict_b",
    "mean_c",
    "se_c",
    "verdict_c",
    "manifest_hash",
]


def crossing_rows(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    alpha: Fraction,
    outcomes: Sequence[TrialOutcome],
    seed: int,
    manifest_hash: str,
) -> list[dict]:
    """Per-trial rows plus one summary row, CSV/JSON ready.

    The bound fields are computed from the same exact quantities the run
    used (the cell norm of t - x, and alpha), so verdicts are recomputable
    from the rows alone.
    """
    bb = phase_b_bound(cell, x, t)
    bc = phase_c_bound(cell.n, alpha)
    run = {
        "lattice_hash": basis_hash(cell.basis),
        "n": cell.n,
        "target": ",".join(str(c) for c in t.coords),
        "start": ",".join(str(c) for c in x.coeffs),
        "strategy": "rsl",
        "alpha": str(alpha),
    }
    rows = [
        {
            "row_type": "trial",
            "trial": o.trial,
            **run,
            "phase_b": o.phase_b,
            "phase_c": o.phase_c,
            "bound_b": str(bb),
            "bound_c": repr(bc),
            "resamples": o.resamples,
            "seed": seed,
            "wall_clock": f"{o.wall_clock:.6f}",
            "manifest_hash": manifest_hash,
        }
        for o in outcomes
    ]
    if outcomes:
        s = summarize_crossings(outcomes, bb, bc)
        rows.append(
            {
                "row_type": "summary",
                "trial": len(outcomes),
                **run,
                "bound_b": str(bb),
                "bound_c": repr(bc),
                "seed": seed,
                "wall_clock": f"{sum(o.wall_clock for o in outcomes):.6f}",
                "mean_b": repr(s.mean_b),
                "se_b": repr(s.se_b),
                "verdict_b": s.verdict_b,
                "mean_c": repr(s.mean_c),
                "se_c": repr(s.se_c),
                "verdict_c": s.verdict_c,
                "manifest_hash": manifest_hash,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# graph distance survey

GRAPHDIST_COLUMNS = [
    "row_type",
    "x",
    "y",
    "d_graph",
    "cell_norm",
    "lower_ok",
    "upper_ok",
    "capped",
    "manifest_hash",
]


def graph_distance_rows(
    cell: VoronoiCellData,
    pairs: Sequence[tuple[LatticePoint, LatticePoint]],
    cap: int,
    manifest_hash: str = "",
) -> list[dict]:
    """d_G versus cell norm for each pair, with both sandwich verdicts.

    For lattice points, (1/2) ||x-y||_V <= d_G(x,y) <= (n/2) ||x-y||_V; rows
    whose BFS exceeded the cap are marked and carry no verdicts.
    """
    rows = []
    n = cell.n
    for x, y in pairs:
        vnorm = voronoi_norm(cell, linalg.sub(y.ambient_on(cell.basis), x.ambient_on(cell.basis)))
        d = graph_distance_bfs(cell, x, y, cap)
        row = {
            "row_type": "pair",
            "x": ",".join(str(c) for c in x.coeffs),
            "y": ",".join(str(c) for c in y.coeffs),
            "cell_norm": str(vnorm),
            "capped": d is None,
            "manifest_hash": manifest_hash,
        }
        if d is None:
            row.update(d_graph="", lower_ok="", upper_ok="")
        else:
            row.update(
                d_graph=d,
                lower_ok=2 * d >= vnorm,
                upper_ok=2 * d <= n * vnorm,
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# solve strategies


STRATEGIES = ("rsl", "slicer", "mv", "deterministic-line")


def solve_with_strategy(
    pre: PreprocessedLattice,
    t: Target,
    strategy: str,
    cfg: SamplerConfig,
) -> SolveResult:
    """Run one of the navigation strategies to a certified answer.

    The deterministic-line strategy follows the unperturbed segment from the
    rounded start (lexicographic tie handling); its crossing count is
    reported without any bound claim.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    if strategy == "rsl":
        return query(pre, t, cfg)
    cell = pre.cell
    x = round_to_start(pre, t)
    steps, trace = 0, None
    if strategy == "slicer":
        y, steps = iterative_slicer(cell, t, x)
    elif strategy == "mv":
        y, trace = mv_walk(cell, t, x)
    else:  # deterministic-line
        y, trace = line_follow(
            cell, x.ambient, t.coords, x, tie_break="lexicographic"
        )
    b, c = count_crossings(trace) if trace is not None else (0, 0)
    return SolveResult(
        point=y,
        certified=certify(pre, t, y),
        restarts=0,
        edges_total=len(trace.events) if trace is not None else steps,
        phase_b=b,
        phase_c=c,
        seed=cfg.seed,
        trace=trace,
        slicer_steps=steps,
    )
