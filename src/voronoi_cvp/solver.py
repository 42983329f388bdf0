"""Closest-vector queries against a preprocessed lattice.

Preprocessing computes the relevant vectors once; each query rounds the
target onto a lattice point at cell-norm distance at most n, walks the
randomized straight line to the truncated endpoint t + alpha*Z, and
certifies the answer exactly.  Randomness only ever affects running time:
an uncertified answer is never returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import linalg
from .errors import ContractViolation, RestartLimitExceeded, TieDetected
from .lattice import (
    DEFAULT_DIM_CAP,
    LatticeBasis,
    LatticePoint,
    Target,
    covering_radius_upper,
    qbar,
)
from .navigation import (
    TRUNCATED,
    PathTrace,
    count_crossings,
    randomized_straight_line,
)
from .oracles import DEFAULT_NODE_CAP
from .sampling import SampleStream, SamplerConfig, stream_for, uniform_sample
from .voronoi import (
    RelevantVector,
    VoronoiCellData,
    compute_relevant_vectors,
    membership,
)


@dataclass(frozen=True)
class PreprocessedLattice:
    """Per-lattice advice: the cell plus a fixed independent frame from it.

    `frame` is the first linearly independent subset of the relevant
    vectors in their canonical order; `frame_inverse` expresses targets in
    frame coordinates for the rounding start.  `frame_sum_sq` =
    sum ||v_i||^2 certifies the covering radius bound mu <= sqrt(sum)/2.
    """

    basis: LatticeBasis
    cell: VoronoiCellData
    frame: tuple[RelevantVector, ...]
    frame_inverse: tuple[tuple[Fraction, ...], ...]
    frame_sum_sq: Fraction
    bits_basis: int


def preprocess(
    basis: LatticeBasis,
    dim_cap: int = DEFAULT_DIM_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
    cell: Optional[VoronoiCellData] = None,
) -> PreprocessedLattice:
    """Compute (or adopt) the cell data and select the rounding frame."""
    if cell is None:
        cell = compute_relevant_vectors(basis, dim_cap=dim_cap, node_cap=node_cap)
    n = basis.n
    frame: list[RelevantVector] = []
    rows: list[list[Fraction]] = []
    for v in cell.vectors:
        trial = rows + [list(v.ambient)]
        if linalg.rank(trial) == len(trial):
            frame.append(v)
            rows = trial
            if len(frame) == n:
                break
    if len(frame) < n:
        raise ContractViolation("relevant vectors do not span the space")
    # invert the matrix whose columns are the frame vectors
    frame_rows = tuple(tuple(frame[j].ambient[i] for j in range(n)) for i in range(n))
    return PreprocessedLattice(
        basis=basis,
        cell=cell,
        frame=tuple(frame),
        frame_inverse=linalg.inverse(frame_rows),
        frame_sum_sq=covering_radius_upper([v.ambient for v in frame]),
        bits_basis=basis.encoding_length,
    )


def round_to_start(pre: PreprocessedLattice, t: Target) -> LatticePoint:
    """Round the target in the frame coordinates (half-to-even on exact halves).

    Every frame vector has cell norm 2 and every rounding residual is at
    most 1/2, so the result is within cell-norm n of the target.
    """
    coords = tuple(linalg.dot(row, t.coords) for row in pre.frame_inverse)
    rounded = [round(a) for a in coords]
    coeffs = [0] * pre.basis.n
    for r, v in zip(rounded, pre.frame):
        for i, c in enumerate(v.coeffs):
            coeffs[i] += r * c
    return LatticePoint.from_coeffs(pre.basis, coeffs)


#: Edge budget per attempt: THRESHOLD_CONSTANT * n * (n + input bits).
THRESHOLD_CONSTANT = 8
#: Attempts (fresh cell samples) before a query gives up.
RESTART_CAP = 64


@dataclass(frozen=True)
class QueryParams:
    """Per-query truncation parameter, edge budget and attempt cap."""

    alpha: Fraction
    max_edges: int
    restart_cap: int = RESTART_CAP


def make_query_params(pre: PreprocessedLattice, t: Target) -> QueryParams:
    """alpha = 1/(4 qbar mu_upper)^2 and an edge budget linear in the bit sizes.

    Using the certified upper bound on the covering radius only shrinks
    alpha, which strengthens the separation argument that makes the
    truncated endpoint's cell a closest vector.
    """
    qb = qbar(pre.basis, t)
    alpha = Fraction(1, 4 * qb * qb) / pre.frame_sum_sq
    if not (0 < alpha <= 1):
        raise ContractViolation("truncation parameter out of range")
    bits = pre.bits_basis + t.encoding_length
    n = pre.basis.n
    return QueryParams(alpha=alpha, max_edges=THRESHOLD_CONSTANT * n * (n + bits))


@dataclass(frozen=True)
class SolveResult:
    """An answer, its exact certificate and walk counts; `trace` is None for the slicer."""

    point: LatticePoint
    certified: bool
    restarts: int
    edges_total: int
    phase_b: int
    phase_c: int
    seed: int
    trace: Optional[PathTrace]
    slicer_steps: int = 0


def certify(pre: PreprocessedLattice, t: Target, y: LatticePoint) -> bool:
    """Exact test that y is a closest lattice vector: t - y lies in the cell."""
    return membership(pre.cell, linalg.sub(t.coords, y.ambient))


def walks(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    alpha: Fraction,
    cfg: SamplerConfig,
    stream: SampleStream,
    cap: int = RESTART_CAP,
    max_edges: Optional[int] = None,
) -> Iterator[tuple[int, LatticePoint, PathTrace, int]]:
    """The Las Vegas attempt loop: one randomized walk per fresh cell sample.

    Attempt i draws Z from `stream.child(i)` and walks from x to the cell
    of t + alpha*Z.  An exact tie or a walk truncated by `max_edges` moves
    on to the next attempt; every walk that reaches its endpoint is yielded
    as (attempt, endpoint, trace, edges walked so far, this walk included).
    The loop ends after `cap` attempts; the caller decides what to accept.
    """
    edges = 0
    for attempt in range(cap):
        z = uniform_sample(cell, cfg, stream.child(attempt))
        try:
            result, trace = randomized_straight_line(cell, x, t, z, alpha, max_edges=max_edges)
        except TieDetected:
            continue
        edges += len(trace.events)
        if result is not TRUNCATED:
            yield attempt, result, trace, edges


def query(
    pre: PreprocessedLattice,
    t: Target,
    cfg: SamplerConfig,
    params: Optional[QueryParams] = None,
    stream: Optional[SampleStream] = None,
) -> SolveResult:
    """Las Vegas closest-vector query.

    Each attempt draws a fresh cell sample and walks the randomized straight
    line under the edge budget; truncation, an exact tie or a failed
    certificate triggers a restart with fresh randomness.  Only exactly
    certified answers are returned; the restart cap aborts with a diagnostic
    instead of guessing.
    """
    params = params or make_query_params(pre, t)
    x = round_to_start(pre, t)
    for attempt, y, trace, edges in walks(
        pre.cell, x, t, params.alpha, cfg, stream or stream_for(cfg),
        cap=params.restart_cap, max_edges=params.max_edges,
    ):
        if certify(pre, t, y):
            b, c = count_crossings(trace)
            return SolveResult(
                point=y,
                certified=True,
                restarts=attempt,
                edges_total=edges,
                phase_b=b,
                phase_c=c,
                seed=cfg.seed,
                trace=trace,
            )
    raise RestartLimitExceeded(
        f"no certified answer within {params.restart_cap} restarts "
        f"(edge budget {params.max_edges}, alpha {params.alpha})"
    )
