"""Path finding on the Voronoi graph.

Walkers move between lattice points whose cells share a facet.  The central
primitive is one leg loop: starting inside a known cell, it tracks the
sequence of cells a polyline of straight legs passes through, advancing an
exact rational time parameter to the earliest facet-exit at each step.
Every line walk is a list of legs for it: `line_follow` and `mv_walk` (one
segment each) and the three-phase randomized straight-line walk (shift by a
cell sample Z, follow the shifted segment, then descend from the shifted
target to a truncation point).  The greedy slicer stands apart.

Every comparison is exact; one step costs O(n |VR|) integer operations:
one int64 matrix product where `VoronoiCellData.scan` proves it exact,
else Python integers (quotients are compared exactly, never as floats).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ContractViolation, TieDetected
from .lattice import LatticePoint, Target
from .voronoi import VoronoiCellData

PHASE_SHIFTED = "B"  # along the shifted segment [x+Z, t+Z]
PHASE_DESCENT = "C"  # from t+Z down to the truncated endpoint t+alpha*Z

#: Safety limit on any single walk, independent of caller budgets.
HARD_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class CrossingEvent:
    """One facet crossing: exit time alpha on the followed segment and the edge taken.

    The exit point is a + alpha (b - a) for the segment [a, b]; the edge is
    the relevant vector from the cell left to the cell entered.
    """

    alpha: Fraction
    edge: LatticePoint
    phase: str


@dataclass(frozen=True)
class PathTrace:
    """A walk: its start, its end, and one event per crossing in between.

    The cell centre after crossing k is `start` plus the first k edges.
    """

    start: LatticePoint
    final: LatticePoint
    events: tuple[CrossingEvent, ...]


class Truncated:
    """Marker result: the walk ran out of edge budget (a value, not an error)."""

    def __repr__(self):
        return "TRUNCATED"


TRUNCATED = Truncated()


def count_crossings(trace: PathTrace) -> tuple[int, int]:
    """Per-phase crossing counts (shifted segment, descent)."""
    b = sum(1 for e in trace.events if e.phase == PHASE_SHIFTED)
    return b, len(trace.events) - b


def _earliest_exits(cell: VoronoiCellData, rows, q, w_int, a_int, dl) -> tuple[list[int], Fraction]:
    """The facets among `rows` (q = <v, b - a> > 0) left first, in `rows` order, and the exit
    time p / (2 den q), p = dl <v, v> + 2 <v, dl w - den a>, of the least floor(p / q) rows."""
    den, vr, nv = cell.basis.den, cell._vr_int, cell._norm_int
    wa = [2 * (dl * wi - den * ai) for wi, ai in zip(w_int, a_int)]
    p = cell.scan(wa, 1, dl, rows)
    if p is None:  # Python integers
        p = np.array([dl * nv[i] + linalg.dot_int(vr[i], wa) for i in rows.tolist()], dtype=object)
    floor = p // q
    near = np.flatnonzero(floor == floor.min())
    exits = [Fraction(pi, qi) for pi, qi in zip(p[near].tolist(), q[near].tolist())]
    least = min(exits)
    return [i for i, e in zip(rows[near].tolist(), exits) if e == least], least / (2 * den)


def _follow_legs(
    cell: VoronoiCellData,
    z: LatticePoint,
    legs: Sequence[tuple[Sequence[int], Sequence[int], str]],
    dl: int,
    tie_break: str = "error",
    max_edges: Optional[int] = None,
) -> tuple[LatticePoint | Truncated, PathTrace]:
    """Follow a polyline of legs (a, b, phase), each leg starting at the last one's b.

    Leg ends are integers over one denominator `dl`.  The first a must lie
    in the cell of z; the caller checks that.  Only relevant vectors v with
    <v, b-a> > 0 can ever be exited through; at each step the exit time of
    every candidate facet is compared exactly and the earliest one wins.
    Returns the lattice point whose cell holds the last b (checked exactly)
    and one event per facet passed, or (TRUNCATED, trace so far) once
    `max_edges` crossings are used up.

    An exact tie among earliest exits means the leg hits a lower
    dimensional face.  With tie_break="error" this raises TieDetected, whose
    alpha and step count within the leg, so the caller can resample its
    randomness; "lexicographic" picks the tied edge with smallest
    coefficient vector (exit times are then only non-decreasing).
    """
    den = cell.basis.den
    w_int = list(z.image_on(cell.basis))
    coeffs = list(z.coeffs)
    events: list[CrossingEvent] = []
    for a_int, b_int, phase in legs:
        leg_start = len(events)
        # candidate exit facets: positive direction component q = <v, b - a>
        d_int = [bi - ai for ai, bi in zip(a_int, b_int)]
        q_rows = cell.scan(d_int, 1, 0)
        if q_rows is not None:
            cand = np.flatnonzero(q_rows > 0)
            q_rows = q_rows[cand]
        else:  # beyond the int64 bound: Python integers for the whole leg
            cand = []
            for idx, v_int in enumerate(cell._vr_int):
                q = linalg.dot_int(v_int, d_int)
                if q > 0:
                    cand.append((idx, v_int, q, 2 * den * linalg.dot_int(v_int, a_int)))
        while len(cand):
            if q_rows is not None:
                best, alpha = _earliest_exits(cell, cand, q_rows, w_int, a_int, dl)
                if alpha >= 1:
                    break  # b is inside the current cell
            else:
                best, best_p, best_q = [], None, None
                for idx, v_int, q, va in cand:
                    # exit time of facet idx is p / (2 den q)
                    p = (cell._norm_int[idx] + 2 * linalg.dot_int(v_int, w_int)) * dl - va
                    if best_p is None or p * best_q < best_p * q:
                        best, best_p, best_q = [idx], p, q
                    elif p * best_q == best_p * q:
                        best.append(idx)
                if best_p >= 2 * den * best_q:
                    break  # alpha >= 1: b is inside the current cell
                alpha = Fraction(best_p, 2 * den * best_q)
            if len(best) > 1:
                tied = [cell.vectors[i] for i in best]
                if tie_break == "error":
                    raise TieDetected(tied, alpha, len(events) - leg_start)
                best.sort(key=lambda i: cell.vectors[i].coeffs)
            if max_edges is not None and len(events) >= max_edges:
                w = LatticePoint(tuple(coeffs), tuple(w_int), cell.basis)
                return TRUNCATED, PathTrace(start=z, final=w, events=tuple(events))
            v_int, edge = cell._vr_int[best[0]], cell.vectors[best[0]]
            for i in range(len(w_int)):
                w_int[i] += v_int[i]
                coeffs[i] += edge.coeffs[i]
            events.append(CrossingEvent(alpha=alpha, edge=edge, phase=phase))
            if len(events) > HARD_STEP_LIMIT:
                raise ContractViolation("line following exceeded the hard step limit")

    # postcondition: the last b lies in the cell of w
    rel_b = tuple(bi * den - wi * dl for bi, wi in zip(b_int, w_int))
    if not cell.membership_scaled(rel_b, dl * den):
        raise ContractViolation("line following ended outside the target cell")
    w = LatticePoint(tuple(coeffs), tuple(w_int), cell.basis)
    return w, PathTrace(start=z, final=w, events=tuple(events))


def line_follow(
    cell: VoronoiCellData,
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    z: LatticePoint,
    tie_break: str = "error",
) -> tuple[LatticePoint, PathTrace]:
    """Follow the segment from a to b through the cell tiling.

    Requires a to lie in the cell of z (checked exactly).  Returns the
    lattice point w whose cell contains b, with one recorded crossing per
    facet passed.  An exact tie among earliest exits means the segment hits
    a lower dimensional face: with tie_break="error" this raises
    TieDetected; "lexicographic" picks the tied edge with smallest
    coefficient vector (deterministic, used by deterministic callers).
    """
    (z_int, a_int, b_int), d = z.scaled_with(cell.basis, Target.of(a), Target.of(b))
    if not cell.membership_scaled([ai - zi for ai, zi in zip(a_int, z_int)], d):
        raise ContractViolation("line_follow start point is not in the start cell")
    return _follow_legs(cell, z, [(a_int, b_int, PHASE_SHIFTED)], d, tie_break=tie_break)


def slicer_scaled(
    cell: VoronoiCellData, t_int: Sequence[int], dt: int, z: LatticePoint, observer=None
) -> tuple[LatticePoint, int]:
    """`iterative_slicer` on the target t_int / dt."""
    den = cell.basis.den
    ds = linalg.lcm(den, dt)
    fz, ft = ds // den, ds // dt
    w_int = list(z.image_on(cell.basis))
    s_int = [wi * fz - ti * ft for wi, ti in zip(w_int, t_int)]  # (z - t) * ds
    coeffs = list(z.coeffs)
    steps = 0
    while True:
        # the first least ||z + v - t||^2 - ||z - t||^2 < 0, scaled by den^2 * ds > 0
        delta = cell.scan(s_int, 2 * den, ds)
        if delta is not None:
            best_idx = int(np.argmin(delta)) if delta.min() < 0 else None
        else:  # Python integers
            best_idx, best_delta = None, 0
            for idx, v_int in enumerate(cell._vr_int):
                d = 2 * den * linalg.dot_int(v_int, s_int) + cell._norm_int[idx] * ds
                if d < best_delta:
                    best_idx, best_delta = idx, d
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
            observer(LatticePoint(tuple(coeffs), tuple(w_int), cell.basis))
        if steps > HARD_STEP_LIMIT:
            raise ContractViolation("slicer exceeded the hard step limit")
    return LatticePoint(tuple(coeffs), tuple(w_int), cell.basis), steps


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
    return slicer_scaled(cell, *t.ints_on(cell.n), z, observer)


def mv_walk(
    cell: VoronoiCellData, t: Target, x: LatticePoint
) -> tuple[LatticePoint, PathTrace]:
    """Micciancio-Voulgaris walk: follow [x, t] from x to the cell of t.

    MV pass waypoints on [x, t]; one leg suffices, since splitting a segment
    does not change the cells an exact walk crosses, and at a waypoint on a
    facet the next leg leaves at alpha = 0 through the same lexicographic
    choice.  Alphas are measured along [x, t]; x lies in its own cell, so the
    start needs no check.  Ties break lexicographically (deterministic).
    """
    (x_int, t_int), d = x.scaled_with(cell.basis, t)
    return _follow_legs(cell, x, [(x_int, t_int, PHASE_SHIFTED)], d, tie_break="lexicographic")


def randomized_straight_line(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    z_sample: Sequence[Fraction],
    alpha,
    max_edges: Optional[int] = None,
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
    sample = Target.of(z_sample)
    (x_int, z_int, t_int), d = x.scaled_with(cell.basis, sample, t)
    # Z in the cell is exactly x + Z in the cell of x: phase B's start
    if not cell.membership_scaled(sample.ints, sample.den):
        raise ContractViolation("perturbation sample is not in the cell")
    alpha = linalg.frac(alpha)
    if not (0 < alpha <= 1):
        raise ContractViolation("alpha must lie in (0, 1]")
    # t - x over lcm(den, t.den), without Z's 2^precision_bits: small enough for int64
    (x_t, t_t), dt = x.scaled_with(cell.basis, t)
    if cell.membership_scaled([ti - xi for xi, ti in zip(x_t, t_t)], dt):
        return x, PathTrace(start=x, final=x, events=())

    # the leg ends x + Z, t + Z and t + alpha Z over the denominator q d
    p, q = alpha.numerator, alpha.denominator
    a1 = [q * (xi + zi) for xi, zi in zip(x_int, z_int)]
    b1 = [q * (ti + zi) for ti, zi in zip(t_int, z_int)]
    b2 = [q * ti + p * zi for ti, zi in zip(t_int, z_int)]
    legs = [(a1, b1, PHASE_SHIFTED), (b1, b2, PHASE_DESCENT)]
    return _follow_legs(cell, x, legs, q * d, max_edges=max_edges)


def trace_to_jsonl(trace: PathTrace) -> str:
    """One JSON object per crossing: {"alpha": "p/q", "edge": [...], "phase": ...}."""
    return "".join(
        json.dumps({"alpha": str(e.alpha), "edge": list(e.edge.coeffs), "phase": e.phase},
                   sort_keys=True) + "\n"
        for e in trace.events
    )
