"""Path finding on the Voronoi graph.

Walkers move between lattice points whose cells share a facet.  The central
primitive is `line_follow`: starting inside a known cell, it tracks the
sequence of cells a straight segment passes through, advancing an exact
rational time parameter to the earliest facet-exit at each step.  Built on
top of it are the greedy slicer, a waypoint walker, and the three-phase
randomized straight-line walk (shift by a cell sample Z, follow the shifted
segment, then descend from the shifted target to a truncation point).

Every comparison is exact; one step costs O(n |VR|) integer operations
(quotients are compared by cross-multiplication, never divided out).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import ContractViolation, TieDetected
from .lattice import LatticePoint, Target
from .voronoi import RelevantVector, VoronoiCellData, membership, voronoi_norm

PHASE_SHIFTED = "B"  # along the shifted segment [x+Z, t+Z]
PHASE_DESCENT = "C"  # from t+Z down to the truncated endpoint t+alpha*Z

#: Safety limit on any single walk, independent of caller budgets.
HARD_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class CrossingEvent:
    """One facet crossing: exit time alpha on the followed segment and the edge taken.

    The exit point is a + alpha (b - a) for the segment [a, b]; consecutive
    events share their `after` and `before` objects.
    """

    alpha: Fraction
    edge: RelevantVector
    before: LatticePoint
    after: LatticePoint
    phase: str


@dataclass(frozen=True)
class PathTrace:
    start: LatticePoint
    final: LatticePoint
    events: tuple[CrossingEvent, ...]

    @property
    def edges(self) -> tuple[RelevantVector, ...]:
        return tuple(e.edge for e in self.events)

    def count(self, phase: str) -> int:
        return sum(1 for e in self.events if e.phase == phase)


class Truncated:
    """Marker result: the walk ran out of edge budget (a value, not an error)."""

    def __repr__(self):
        return "TRUNCATED"


TRUNCATED = Truncated()


def count_crossings(trace: PathTrace) -> tuple[int, int]:
    """Per-phase crossing counts (shifted segment, descent)."""
    return trace.count(PHASE_SHIFTED), trace.count(PHASE_DESCENT)


class _EdgeBudget(Exception):
    def __init__(self, w: LatticePoint, events: list[CrossingEvent]):
        self.w = w
        self.events = events


def _point_from_scaled(coeffs: tuple[int, ...], w_int: Sequence[int], den: int) -> LatticePoint:
    return LatticePoint(coeffs=coeffs, ambient=tuple(Fraction(x, den) for x in w_int))


def line_follow(
    cell: VoronoiCellData,
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    z: LatticePoint,
    phase: str = PHASE_SHIFTED,
    tie_break: str = "error",
    max_edges: Optional[int] = None,
) -> tuple[LatticePoint, PathTrace]:
    """Follow the segment from a to b through the cell tiling.

    Requires a to lie in the cell of z (checked exactly).  Returns the
    lattice point w whose cell contains b, with one recorded crossing per
    facet passed.  Only relevant vectors v with <v, b-a> > 0 can ever be
    exited through; at each step the exit time of every candidate facet is
    compared exactly and the earliest one wins.

    An exact tie among earliest exits means the segment hits a lower
    dimensional face.  With tie_break="error" this raises TieDetected so the
    caller can resample its randomness; "lexicographic" picks the tied edge
    with smallest coefficient vector (deterministic, used by deterministic
    callers; exit times are then only non-decreasing).
    """
    a = linalg.vec(a)
    b = linalg.vec(b)
    den = cell._den
    w_int = list(linalg.scale_exact(z.ambient, den))
    a_int, da = linalg.scaled_ints(a)
    # precondition: a in z + cell, i.e. (a - z) scaled by den*da is a member
    rel = tuple(
        ai * den - wi * da for ai, wi in zip(a_int, w_int)
    )
    if not cell.membership_scaled(rel, da * den):
        raise ContractViolation("line_follow start point is not in the start cell")

    d_int, dd = linalg.scaled_ints(linalg.sub(b, a))
    coeffs = list(z.coeffs)
    here = z
    events: list[CrossingEvent] = []

    # candidate exit facets: indices with positive direction component
    cand = []
    for idx, v_int in enumerate(cell._vr_int):
        q = linalg.dot_int(v_int, d_int)
        if q > 0:
            cand.append((idx, v_int, q, linalg.dot_int(v_int, a_int)))

    steps = 0
    while cand:
        best: list[tuple] = []
        best_p = best_q = None
        for idx, v_int, q, va in cand:
            # exit time of facet idx is p/q up to the shared positive factor
            p = cell._norm_int[idx] * da + 2 * da * linalg.dot_int(v_int, w_int) - 2 * den * va
            if best_p is None or p * best_q < best_p * q:
                best_p, best_q = p, q
                best = [(idx, v_int, q, p)]
            elif p * best_q == best_p * q:
                best.append((idx, v_int, q, p))
        # alpha >= 1 <=> p * dd >= 2 * den * da * q: b is inside the current cell
        if best_p * dd >= 2 * den * da * best_q:
            break
        if len(best) > 1:
            tied = [cell.vectors[i] for i, _, _, _ in best]
            alpha = Fraction(best_p * dd, 2 * den * da * best_q)
            if tie_break == "error":
                raise TieDetected(tied, alpha, steps)
            best.sort(key=lambda item: cell.vectors[item[0]].coeffs)
        if max_edges is not None and steps >= max_edges:
            raise _EdgeBudget(here, events)
        idx, v_int, q, p = best[0]
        edge = cell.vectors[idx]
        for i in range(len(w_int)):
            w_int[i] += v_int[i]
            coeffs[i] += edge.coeffs[i]
        after = _point_from_scaled(tuple(coeffs), w_int, den)
        events.append(
            CrossingEvent(
                alpha=Fraction(p * dd, 2 * den * da * q),
                edge=edge,
                before=here,
                after=after,
                phase=phase,
            )
        )
        here = after
        steps += 1
        if steps > HARD_STEP_LIMIT:
            raise ContractViolation("line_follow exceeded the hard step limit")

    w = here
    # postcondition: b lies in the cell of w
    b_int, db = linalg.scaled_ints(b)
    rel_b = tuple(bi * den - wi * db for bi, wi in zip(b_int, w_int))
    if not cell.membership_scaled(rel_b, db * den):
        raise ContractViolation("line_follow ended outside the target cell")
    return w, PathTrace(start=z, final=w, events=tuple(events))


def iterative_slicer(
    cell: VoronoiCellData, t: Target, z: LatticePoint, observer=None
) -> tuple[LatticePoint, int]:
    """Greedy descent: repeatedly add the relevant vector that most reduces
    the exact squared distance to the target; stop when none improves.

    When no relevant vector improves, the target lies in the cell of the
    current point, which is therefore a closest lattice vector.  Each step
    strictly decreases the distance, so the walk terminates.  An `observer`
    callable, if given, receives each intermediate lattice point.
    """
    den = cell._den
    t_int, dt = linalg.scaled_ints(t.coords)
    ds = linalg.lcm(den, dt)
    fz, ft = ds // den, ds // dt
    w_int = list(linalg.scale_exact(z.ambient, den))
    s_int = [wi * fz - ti * ft for wi, ti in zip(w_int, t_int)]  # (z - t) * ds
    coeffs = list(z.coeffs)
    steps = 0
    while True:
        best_idx = None
        best_delta = 0
        for idx, v_int in enumerate(cell._vr_int):
            # ||z + v - t||^2 - ||z - t||^2 < 0, scaled by den^2 * ds > 0
            delta = 2 * den * linalg.dot_int(v_int, s_int) + cell._norm_int[idx] * ds
            if delta < best_delta:
                best_delta = delta
                best_idx = idx
        if best_idx is None:
            break
        v_int = cell._vr_int[best_idx]
        edge = cell.vectors[best_idx]
        for i in range(len(s_int)):
            s_int[i] += v_int[i] * fz
            w_int[i] += v_int[i]
            coeffs[i] += edge.coeffs[i]
        steps += 1
        if observer is not None:
            observer(_point_from_scaled(tuple(coeffs), w_int, den))
        if steps > HARD_STEP_LIMIT:
            raise ContractViolation("slicer exceeded the hard step limit")
    return _point_from_scaled(tuple(coeffs), w_int, den), steps


def _empty_trace(x: LatticePoint) -> PathTrace:
    return PathTrace(start=x, final=x, events=())


def _merge_traces(start: LatticePoint, final: LatticePoint, parts: Sequence[PathTrace]) -> PathTrace:
    events = tuple(e for p in parts for e in p.events)
    return PathTrace(start=start, final=final, events=events)


def mv_walk(
    cell: VoronoiCellData,
    t: Target,
    x: LatticePoint,
    tie_break: str = "lexicographic",
) -> tuple[LatticePoint, PathTrace]:
    """Walk to the target cell via waypoints spaced <= 2 in the cell norm.

    Places ceil(||t - x||_V / 2) waypoints along [x, t] and line-follows
    each piece in turn; the lattice point reached for one waypoint seeds the
    next piece.  Deterministic thanks to lexicographic tie handling (which
    trades away the generic-position analysis, not correctness).
    """
    delta = linalg.sub(t.coords, x.ambient)
    if membership(cell, delta):
        return x, _empty_trace(x)
    dist = voronoi_norm(cell, delta)
    k = linalg.ceil_frac(dist / 2)
    parts = []
    w = x
    prev = linalg.vec(x.ambient)
    for j in range(1, k + 1):
        frac_j = Fraction(j, k)
        way = tuple(xi + frac_j * di for xi, di in zip(x.ambient, delta))
        w, tr = line_follow(cell, prev, way, w, phase=PHASE_SHIFTED, tie_break=tie_break)
        parts.append(tr)
        prev = way
    return w, _merge_traces(x, w, parts)


def randomized_straight_line(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    z_sample: Sequence[Fraction],
    alpha,
    max_edges: Optional[int] = None,
    tie_break: str = "error",
) -> tuple[LatticePoint | Truncated, PathTrace]:
    """Three-phase randomized walk from x to the cell containing t + alpha*Z.

    Phase A (shifting x to x+Z) stays inside the start cell and crosses
    nothing.  Phase B follows [x+Z, t+Z]; phase C follows [t+Z, t+alpha*Z].
    The returned point is the center of the cell containing the truncated
    endpoint; for rational data with alpha below the separation threshold
    that center is a closest lattice vector (the caller certifies exactly).

    If the target already lies in the start cell the walk is skipped
    entirely.  Exceeding `max_edges` yields (TRUNCATED, partial trace);
    exact ties raise TieDetected for the caller to resample Z.
    """
    z_sample = linalg.vec(z_sample)
    if not membership(cell, z_sample):
        raise ContractViolation("perturbation sample is not in the cell")
    alpha = linalg.frac(alpha)
    if not (0 < alpha <= 1):
        raise ContractViolation("alpha must lie in (0, 1]")
    if membership(cell, linalg.sub(t.coords, x.ambient)):
        return x, _empty_trace(x)

    a1 = linalg.add(x.ambient, z_sample)
    b1 = linalg.add(t.coords, z_sample)
    b2 = linalg.add(t.coords, linalg.scale(alpha, z_sample))
    try:
        w1, tr1 = line_follow(
            cell, a1, b1, x, phase=PHASE_SHIFTED, tie_break=tie_break, max_edges=max_edges
        )
    except _EdgeBudget as eb:
        return TRUNCATED, PathTrace(start=x, final=eb.w, events=tuple(eb.events))
    remaining = None if max_edges is None else max_edges - len(tr1.events)
    try:
        w2, tr2 = line_follow(
            cell, b1, b2, w1, phase=PHASE_DESCENT, tie_break=tie_break, max_edges=remaining
        )
    except _EdgeBudget as eb:
        partial = PathTrace(start=w1, final=eb.w, events=tuple(eb.events))
        return TRUNCATED, _merge_traces(x, eb.w, [tr1, partial])
    return w2, _merge_traces(x, w2, [tr1, tr2])


def trace_to_jsonl(trace: PathTrace) -> str:
    """One JSON object per crossing: {"alpha": "p/q", "edge": [...], "phase": ...}."""
    lines = []
    for e in trace.events:
        lines.append(
            json.dumps(
                {"alpha": str(e.alpha), "edge": [int(c) for c in e.edge.coeffs], "phase": e.phase},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(trace: PathTrace, path) -> None:
    with open(path, "w") as f:
        f.write(trace_to_jsonl(trace))
