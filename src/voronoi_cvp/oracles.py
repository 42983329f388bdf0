"""Brute-force ground-truth solvers.

These enumerate lattice points exactly (rational arithmetic end to end) and
serve as the reference answers for everything else in the package.  They are
deliberately simple; no pruning heuristics beyond the exact ball bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import SizeCapError
from .lattice import LatticeBasis, LatticePoint, Target

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class CvpSolutionSet:
    """Exact squared distance and every minimizer at that distance."""

    dist_sq: Fraction
    points: tuple[LatticePoint, ...]


def _ball_search(
    basis: LatticeBasis,
    center: Sequence[Fraction],
    radius_sq: Fraction,
    node_cap: int,
    shrink: bool,
) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Enumerate coefficient vectors a with ||B a - center||^2 <= radius_sq.

    Uses the LDL^T form of the Gram matrix: with z = a - y (y the rational
    coordinates of the center), ||B z||^2 = sum_j d_j (z_j + sum_{i>j} L_ij z_i)^2,
    which gives an exact integer interval for each coefficient level.

    With ``shrink`` the bound tightens to the best distance seen so far and
    only minimizers are kept (returns (best_sq, argmin coeffs)); otherwise
    all coefficient vectors in the ball are returned with bound fixed.
    """
    n = basis.n
    y = basis.coefficients_of(linalg.vec(center))
    L, d = linalg.ldl(basis.gram)

    state = {"nodes": 0, "best": radius_sq, "out": []}
    z = [Fraction(0)] * n  # z[i] = a[i] - y[i], filled from level n-1 down

    def recurse(level: int, used: Fraction) -> None:
        if level < 0:
            if shrink and used < state["best"]:
                state["best"] = used
                state["out"] = []
            state["out"].append(tuple(int(zi + yi) for zi, yi in zip(z, y)))
            return
        remaining = state["best"] - used
        if remaining < 0:
            return
        # offset c = sum_{i>level} L[i][level] * z[i]
        c = sum(
            (L[i][level] * z[i] for i in range(level + 1, n) if z[i]),
            Fraction(0),
        )
        bound = remaining / d[level]
        mid = y[level] - c
        lo = linalg.ceil_of_diff_with_sqrt(mid, bound)
        hi = linalg.floor_of_sum_with_sqrt(mid, bound)
        for a_val in range(lo, hi + 1):
            state["nodes"] += 1
            if state["nodes"] > node_cap:
                raise SizeCapError(
                    f"ball enumeration exceeded node cap {node_cap}"
                )
            z[level] = a_val - y[level]
            term = d[level] * (z[level] + c) ** 2
            if used + term <= state["best"]:
                recurse(level - 1, used + term)
        z[level] = Fraction(0)

    recurse(n - 1, Fraction(0))
    return state["best"], state["out"]


def enumerate_ball(
    basis: LatticeBasis,
    center: Target | Sequence[Fraction],
    radius_sq,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[LatticePoint]:
    """All lattice points within squared distance radius_sq of the center."""
    r = linalg.frac(radius_sq)
    if r < 0:
        raise ValueError("radius_sq must be nonnegative")
    c = center.coords if isinstance(center, Target) else linalg.vec(center)
    _, coeff_list = _ball_search(basis, c, r, node_cap, shrink=False)
    pts = [LatticePoint.from_coeffs(basis, a) for a in coeff_list]
    pts.sort(key=lambda p: p.coeffs)
    return pts


def cvp_bruteforce(
    basis: LatticeBasis, t: Target, node_cap: int = DEFAULT_NODE_CAP
) -> CvpSolutionSet:
    """Exact closest-vector solution set.

    The search radius is seeded by the distance to the coefficient-rounded
    point and shrinks as better points are found.
    """
    y = basis.coefficients_of(t.coords)
    rounded = tuple(round(a) for a in y)
    seed_pt = basis.apply(rounded)
    seed_sq = linalg.norm_sq(linalg.sub(t.coords, seed_pt))
    best, coeff_list = _ball_search(basis, t.coords, seed_sq, node_cap, shrink=True)
    pts = [LatticePoint.from_coeffs(basis, a) for a in coeff_list]
    pts.sort(key=lambda p: p.coeffs)
    return CvpSolutionSet(dist_sq=best, points=tuple(pts))


def graph_distance_bfs(
    cell,
    x: LatticePoint,
    y: LatticePoint,
    cap: int,
    node_cap: int = 1_000_000,
) -> Optional[int]:
    """Shortest path length between x and y stepping by relevant vectors.

    Breadth-first search in coefficient space (translation invariant, so it
    runs on the difference).  Returns None when the distance exceeds `cap`.
    """
    start = tuple(b - a for a, b in zip(x.coeffs, y.coeffs))
    if not any(start):
        return 0
    steps = [v.coeffs for v in cell.vectors]
    visited = {start}
    frontier = [start]
    for dist in range(1, cap + 1):
        nxt = []
        for node in frontier:
            for s in steps:
                child = tuple(a - b for a, b in zip(node, s))
                if not any(child):
                    return dist
                if child not in visited:
                    visited.add(child)
                    if len(visited) > node_cap:
                        raise SizeCapError(
                            f"graph BFS exceeded node cap {node_cap}"
                        )
                    nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    return None
