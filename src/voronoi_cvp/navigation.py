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

A leg's candidate facets are the v with <v, b - a> > 0, and those products
are its exit denominators.  `line_follow` and `mv_walk` scan the direction
once; the randomized walk reuses the products of its t - x test and of the
`CellSample`.  No walk scans its end point: the leg loop's exit rule puts
it in the returned cell (see `_follow_legs`).
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
from .sampling import CellSample
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


def _earliest_exits(
    cell: VoronoiCellData, rows, q, scale, w_int, a_int, dl
) -> Optional[tuple[list[int], Fraction]]:
    """The facets among `rows` left first, in `rows` order, and their exit time, or None
    where `VoronoiCellData.scan` cannot prove the int64 product exact.

    Facet i is left at p_i / (scale q_i), p = dl <v, v> + 2 <v, dl w - den a>,
    where q_i > 0 is <v_i, b - a> up to the leg's common factor 2 den / scale.
    Only the rows of least floor(p / q) are compared, as `Fraction`s.
    """
    den = cell.basis.den
    p = cell.scan([2 * (dl * wi - den * ai) for wi, ai in zip(w_int, a_int)], 1, dl, rows)
    if p is None:
        return None
    floor = p // q
    near = np.flatnonzero(floor == floor.min())
    exits = [Fraction(pi, qi) for pi, qi in zip(p[near].tolist(), q[near].tolist())]
    least = min(exits)
    return [i for i, e in zip(rows[near].tolist(), exits) if e == least], least / scale


def _segment_leg(cell: VoronoiCellData, a_int, b_int, phase: str) -> tuple:
    """The leg from a to b for `_follow_legs`: its candidates and their q = <v, b - a>, one scan."""
    d_int = [bi - ai for ai, bi in zip(a_int, b_int)]
    q = cell.scan(d_int, 1, 0)
    if q is None:  # Python integers
        q = np.array([linalg.dot_int(v, d_int) for v in cell._vr_int], dtype=object)
    rows = np.flatnonzero(q > 0)
    return a_int, phase, rows, q[rows], 2 * cell.basis.den


def _follow_legs(
    cell: VoronoiCellData,
    z: LatticePoint,
    legs: Sequence[tuple],
    dl: int,
    tie_break: str = "error",
    max_edges: Optional[int] = None,
) -> tuple[LatticePoint | Truncated, PathTrace]:
    """Follow a polyline of legs, each leg starting at the last one's end b.

    A leg is (a, phase, rows, q, scale): its start a, integers over the one
    denominator `dl`; its candidate facets `rows`, the ascending indices of
    the relevant vectors v with <v, b - a> > 0; and for each of them
    q_i = <v_i, b - a> 2 den / scale (den the basis's denominator) with a
    common positive `scale`.  The first a must lie in the cell of z; the
    caller makes sure of that.  At each step the exit time of every
    candidate facet is compared exactly and the earliest one wins.  Returns
    the lattice point whose cell holds the last b and one event per facet
    passed, or (TRUNCATED, trace so far) once `max_edges` crossings are
    used up.

    The returned cell holds the last b without a test, because:
    - Each leg starts in the current cell.  The first leg starts there by
      the caller's check (`line_follow`), because a is z itself (`mv_walk`),
      or because a - z is a cell sample (the randomized walk), which
      `uniform_sample` or `CellSample.of` proved to lie in the cell.  Each
      later leg starts at the previous leg's b, which lies inside the cell
      the walk stopped in.
    - A facet with <v, b - a> <= 0 is never crossed on the leg: the point's
      component along v does not grow.  The point on an exited facet lies
      in both cells, so every facet of the entered cell is satisfied there.
    - The loop stops only when every candidate's exit time is at least 1,
      so b satisfies every facet of the cell it stopped in.

    An exact tie among earliest exits means the leg hits a lower
    dimensional face.  With tie_break="error" this raises TieDetected, whose
    alpha and step count within the leg, so the caller can resample its
    randomness; "lexicographic" picks the tied edge with smallest
    coefficient vector (exit times are then only non-decreasing).
    """
    den, vr, nv, coeff_rows = cell.basis.den, cell._vr_int, cell._norm_int, cell.coeffs
    w_int = list(z.image_on(cell.basis))
    coeffs = list(z.coeffs)
    events: list[CrossingEvent] = []
    for a_int, phase, rows, q, scale in legs:
        leg_start = len(events)
        cand = None  # (row, q, 2 den <v, a>) once the leg leaves int64
        while len(rows):
            found = None if cand else _earliest_exits(cell, rows, q, scale, w_int, a_int, dl)
            if found is not None:
                best, alpha = found
                if alpha >= 1:
                    break  # b is inside the current cell
            else:  # Python integers for the rest of the leg
                if cand is None:
                    cand = [(i, qi, 2 * den * linalg.dot_int(vr[i], a_int))
                            for i, qi in zip(rows.tolist(), q.tolist())]
                best, best_p, best_q = [], None, None
                for i, qi, va in cand:
                    # exit time of facet i is p / (scale q)
                    p = (nv[i] + 2 * linalg.dot_int(vr[i], w_int)) * dl - va
                    if best_p is None or p * best_q < best_p * qi:
                        best, best_p, best_q = [i], p, qi
                    elif p * best_q == best_p * qi:
                        best.append(i)
                if best_p >= scale * best_q:
                    break  # alpha >= 1: b is inside the current cell
                alpha = Fraction(best_p, scale * best_q)
            if len(best) > 1:
                if tie_break == "error":
                    raise TieDetected(list(map(cell.vector, best)), alpha, len(events) - leg_start)
                best.sort(key=coeff_rows.__getitem__)
            if max_edges is not None and len(events) >= max_edges:
                w = LatticePoint(tuple(coeffs), tuple(w_int), cell.basis)
                return TRUNCATED, PathTrace(start=z, final=w, events=tuple(events))
            e = best[0]
            v_int, v_a = vr[e], coeff_rows[e]
            for i in range(len(w_int)):
                w_int[i] += v_int[i]
                coeffs[i] += v_a[i]
            events.append(CrossingEvent(alpha=alpha, edge=cell.vector(e), phase=phase))
            if len(events) > HARD_STEP_LIMIT:
                raise ContractViolation("line following exceeded the hard step limit")
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
    leg = _segment_leg(cell, a_int, b_int, PHASE_SHIFTED)
    return _follow_legs(cell, z, [leg], d, tie_break=tie_break)


def slicer_products(
    cell: VoronoiCellData, t_int: Sequence[int], dt: int, z: LatticePoint, observer=None
) -> tuple[LatticePoint, int, np.ndarray]:
    """`iterative_slicer` on the target t_int / dt, with its final scan's products.

    Returns the closest vector y, the step count and <V_i, r> for every
    relevant image V_i, where r = (t - y) ds, ds = lcm(den, dt), is the
    residual: the scan that found no improving vector computed them.
    """
    den2 = 2 * cell.basis.den
    ds = linalg.lcm(cell.basis.den, dt)
    fz, ft = ds // cell.basis.den, ds // dt
    w_int = list(z.image_on(cell.basis))
    r_int = [ti * ft - wi * fz for wi, ti in zip(w_int, t_int)]  # (t - z) * ds
    coeffs = list(z.coeffs)
    steps = 0
    while True:
        # the first least ||z + v - t||^2 - ||z - t||^2 < 0, scaled by den^2 * ds > 0
        delta = cell.scan(r_int, -den2, ds)
        if delta is not None:
            best_idx = int(np.argmin(delta)) if delta.min() < 0 else None
        else:  # Python integers
            dots = [linalg.dot_int(v_int, r_int) for v_int in cell._vr_int]
            best_idx, best_delta = None, 0
            for idx, (dot, nv) in enumerate(zip(dots, cell._norm_int)):
                d = nv * ds - den2 * dot
                if d < best_delta:
                    best_idx, best_delta = idx, d
        if best_idx is None:
            break
        v_int, v_a = cell._vr_int[best_idx], cell.coeffs[best_idx]
        for i in range(len(r_int)):
            r_int[i] -= v_int[i] * fz
            w_int[i] += v_int[i]
            coeffs[i] += v_a[i]
        steps += 1
        if observer is not None:
            observer(LatticePoint(tuple(coeffs), tuple(w_int), cell.basis))
        if steps > HARD_STEP_LIMIT:
            raise ContractViolation("slicer exceeded the hard step limit")
    if delta is not None:
        # den2 <V, r> = ds <V, V> - delta; both terms passed the scan's int64 bound
        dots = (cell._norm_np * ds - delta) // den2
    else:
        dots = np.array(dots, dtype=object)
    return LatticePoint(tuple(coeffs), tuple(w_int), cell.basis), steps, dots


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
    y, steps, _ = slicer_products(cell, *t.ints_on(cell.n), z, observer)
    return y, steps


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
    leg = _segment_leg(cell, x_int, t_int, PHASE_SHIFTED)
    return _follow_legs(cell, x, [leg], d, tie_break="lexicographic")


def randomized_straight_line(
    cell: VoronoiCellData,
    x: LatticePoint,
    t: Target,
    z_sample: CellSample | Sequence[Fraction],
    alpha,
    max_edges: Optional[int] = None,
) -> tuple[LatticePoint | Truncated, PathTrace]:
    """Three-phase randomized walk from x to the cell containing t + alpha*Z.

    Phase A (shifting x to x+Z) stays inside the start cell and crosses
    nothing.  Phase B follows [x+Z, t+Z]; phase C follows [t+Z, t+alpha*Z].
    The returned point is the center of the cell containing the truncated
    endpoint; for rational data with alpha below the separation threshold
    that center is a closest lattice vector (the caller certifies exactly).

    Z is a `CellSample` of this cell, taken as it is; a plain coordinate
    sequence goes through `CellSample.of`, which tests it.  If the target
    already lies in the start cell the walk is skipped entirely.  Exceeding
    `max_edges` yields (TRUNCATED, partial trace); exact ties raise
    TieDetected for the caller to resample Z.
    """
    # Z in the cell is exactly x + Z in the cell of x: phase B's start
    sample = z_sample if isinstance(z_sample, CellSample) else CellSample.of(cell, z_sample)
    if sample.cell != cell:
        raise ContractViolation("cell sample was drawn in another cell")
    alpha = linalg.frac(alpha)
    if not (0 < alpha <= 1):
        raise ContractViolation("alpha must lie in (0, 1]")
    # t - x over d0 = lcm(den, t.den), without Z's 2^precision_bits: small enough for int64.
    # Its products 2 den <v, t - x> decide t in the cell of x and are phase B's q values.
    (x_t, t_t), d0 = x.scaled_with(cell.basis, t)
    e_int = [ti - xi for xi, ti in zip(x_t, t_t)]
    den2 = 2 * cell.basis.den
    out = cell.scan(e_int, den2, -d0)
    if out is not None:
        inside = not (out > 0).any()
        q_b = out + cell._norm_np * d0  # both terms passed the scan's int64 bound
    else:  # Python integers
        q_b = np.array([den2 * linalg.dot_int(v, e_int) for v in cell._vr_int], dtype=object)
        inside = all(qi <= d0 * nv for qi, nv in zip(q_b.tolist(), cell._norm_int))
    if inside:
        return x, PathTrace(start=x, final=x, events=())

    # the leg starts x + Z and t + Z over the denominator q d, d = lcm(d0, Z's den)
    p, q = alpha.numerator, alpha.denominator
    d = linalg.lcm(d0, sample.den)
    f, fz = d // d0, d // sample.den
    z_int = [fz * zi for zi in sample.ints]
    a1 = [q * (f * xi + zi) for xi, zi in zip(x_t, z_int)]
    a2 = [q * (f * ti + zi) for ti, zi in zip(t_t, z_int)]
    # over q d, b1 - a1 = q f (t - x) d0, so <v, b1 - a1> = q f q_b / den2: scale q f;
    # b2 - b1 = (p - q) fz Z den_Z, so <v, b2 - b1> = (q - p) fz (-dots): scale den2 (q - p) fz,
    # and no candidate when alpha = 1
    rows_b = np.flatnonzero(q_b > 0)
    rows_c = np.flatnonzero(sample.dots < 0) if p < q else rows_b[:0]
    legs = [
        (a1, PHASE_SHIFTED, rows_b, q_b[rows_b], q * f),
        (a2, PHASE_DESCENT, rows_c, -sample.dots[rows_c], den2 * (q - p) * fz),
    ]
    return _follow_legs(cell, x, legs, q * d, max_edges=max_edges)


def trace_to_jsonl(trace: PathTrace) -> str:
    """One JSON object per crossing: {"alpha": "p/q", "edge": [...], "phase": ...}."""
    return "".join(
        json.dumps({"alpha": str(e.alpha), "edge": list(e.edge.coeffs), "phase": e.phase},
                   sort_keys=True) + "\n"
        for e in trace.events
    )
