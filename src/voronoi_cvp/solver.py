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
from math import gcd
from typing import Iterator, Optional

from . import linalg
from .errors import ContractViolation, RestartLimitExceeded, TieDetected
from .lattice import LatticeBasis, LatticePoint, Target, qbar
from .navigation import (
    TRUNCATED,
    PathTrace,
    count_crossings,
    randomized_straight_line,
)
from .sampling import SampleStream, SamplerConfig, stream_for, uniform_sample
from .voronoi import VoronoiCellData, compute_relevant_vectors


@dataclass(frozen=True)
class PreprocessedLattice:
    """Per-lattice advice: the cell plus a fixed independent frame from it.

    `frame` is the first linearly independent subset of the relevant
    vectors in their canonical order; `frame_inverse_int` / `frame_den`,
    the inverse of the frame matrix, expresses targets in frame coordinates
    for the rounding start.  `frame_sum_sq` = sum ||v_i||^2 certifies the
    covering radius bound mu <= sqrt(sum)/2.
    """

    basis: LatticeBasis
    cell: VoronoiCellData
    frame: tuple[LatticePoint, ...]
    frame_inverse_int: tuple[tuple[int, ...], ...]
    frame_den: int
    frame_sum_sq: Fraction
    bits_basis: int


def preprocess(
    basis: LatticeBasis, cell: Optional[VoronoiCellData] = None
) -> PreprocessedLattice:
    """Compute (or adopt) the cell data and select the rounding frame."""
    if cell is None:
        cell = compute_relevant_vectors(basis)
    n = basis.n
    # B is nonsingular, so independence of the integer coefficient vectors
    # is independence of the ambient vectors: reduce each candidate against
    # a fraction-free echelon of the frame so far (pivot column, row), whose
    # rows are divided by their gcd to keep the integers small.
    frame: list[LatticePoint] = []
    echelon: list[tuple[int, list[int]]] = []
    for v in cell.vectors:
        r = list(v.coeffs)
        for col, e in echelon:
            if r[col]:
                r = [e[col] * a - r[col] * b for a, b in zip(r, e)]
        pivot = next((c for c, a in enumerate(r) if a), None)
        if pivot is None:
            continue
        frame.append(v)
        g = gcd(*r)
        echelon.append((pivot, [a // g for a in r]))
        if len(frame) == n:
            break
    if len(frame) < n:
        raise ContractViolation("relevant vectors do not span the space")
    # F = F_int / den with the frame vectors as columns; F_int K = d I gives
    # F^-1 = den K / d
    cols = [v.image for v in frame]
    inv, frame_den = linalg.inverse(tuple(zip(*cols)))
    return PreprocessedLattice(
        basis=basis,
        cell=cell,
        frame=tuple(frame),
        frame_inverse_int=tuple(tuple(basis.den * k for k in row) for row in inv),
        frame_den=frame_den,
        frame_sum_sq=Fraction(sum(linalg.dot_int(c, c) for c in cols), basis.den**2),
        bits_basis=basis.encoding_length,
    )


def round_to_start(pre: PreprocessedLattice, t: Target) -> LatticePoint:
    """Round the target in the frame coordinates (half-to-even on exact halves).

    Every frame vector has cell norm 2 and every rounding residual is at
    most 1/2, so the result is within cell-norm n of the target.
    """
    t_int, dt = t.ints_on(pre.basis.n)
    d = pre.frame_den * dt
    coeffs = [0] * pre.basis.n
    for row, v in zip(pre.frame_inverse_int, pre.frame):
        q, r = divmod(linalg.dot_int(row, t_int), d)
        q += 2 * r + (q & 1) > d  # half to even: up iff 2r > d, or 2r = d and q is odd
        for i, c in enumerate(v.coeffs):
            coeffs[i] += q * c
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
    (y_int, t_int), d = y.scaled_with(pre.basis, t)
    return pre.cell.membership_scaled([ti - yi for ti, yi in zip(t_int, y_int)], d)


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
