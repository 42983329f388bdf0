"""Brute-force ground-truth solvers.

The lattice enumeration is one exact integer recursion over the LDL^T
levels of the integer Gram matrix (Agrell, Eriksson, Vardy & Zeger 2002):
every interval is an `isqrt` bound, with no `Fraction` and no float.  It
finds the relevant vectors (`voronoi.compute_relevant_vectors`) and the
closest vectors (`cvp_bruteforce`), the reference answers for everything
else in the package.  It is deliberately simple; no pruning heuristics
beyond the exact ball bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from . import linalg
from .errors import SizeCapError
from .lattice import LatticeBasis, LatticePoint, Target

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class CvpSolutionSet:
    """Exact squared distance and every minimizer at that distance."""

    dist_sq: Fraction
    points: tuple[LatticePoint, ...]


def _integer_gram(basis: LatticeBasis) -> list[list[int]]:
    """G = (den B)^T (den B), the Gram matrix of the integer-scaled basis."""
    cols = tuple(zip(*basis.rows_int))
    return [[linalg.dot_int(u, v) for v in cols] for u in cols]


def _integer_levels(gram: list[list[int]]) -> tuple[list, int]:
    """Integer form of the LDL^T of an integer Gram matrix G: (levels, M).

    Level k holds (D_k, e_k, ((i, D_k L_ik) for i > k)) with D_k the least
    common denominator of the L_ik and e_k = M d_k / D_k^2 over one M, so that
    M z^T G z = sum_k e_k (D_k z_k + C_k)^2 with C_k = sum_{i>k} D_k L_ik z_i.
    """
    n = len(gram)
    L, d = linalg.ldl(gram)
    dens = [lcm(*(L[i][k].denominator for i in range(k + 1, n))) for k in range(n)]
    weights = [d[k] / (dens[k] * dens[k]) for k in range(n)]
    m = lcm(*(w.denominator for w in weights))
    levels = [
        (
            dens[k],
            int(weights[k] * m),
            tuple((i, int(L[i][k] * dens[k])) for i in range(k + 1, n) if L[i][k]),
        )
        for k in range(n)
    ]
    return levels, m


def _class_minima(levels, y_int, dy: int, bound: int, node_cap: int, half: bool) -> dict:
    """Per class of L/2L: the least scaled distance to y in the ball, with its minimizers.

    The centre is y = y_int / dy in coefficient space.  With z = dy a - y_int,
    visits every coefficient vector a with sum_k e_k (D_k z_k + C_k)^2 <= bound
    and folds it into `minima[parity] = [norm, [a, ...]]` on the fly, where
    bit k of the parity is a_k mod 2.  The centre's share of D_k z_k + C_k is
    one constant per level: D_k z_k + C_k = dy (D_k a_k + C_k(a)) - (D_k y_k
    + C_k(y)).  With `half` (valid only at y = 0) it visits one of each +-
    pair, the one whose last nonzero coefficient is positive, and skips the
    class of 2L, 0 included.
    """
    n = len(levels)
    # per level: dy D_k, e_k, the dy D_k L_ik, and D_k y_k + C_k(y)
    scaled = [
        (
            dy * dk,
            ek,
            tuple((i, dy * lik) for i, lik in lk),
            dk * y_int[k] + sum(lik * y_int[i] for i, lik in lk),
        )
        for k, (dk, ek, lk) in enumerate(levels)
    ]
    a = [0] * n
    minima: dict = {}
    nodes = 0

    def visit(k: int, used: int, zero_above: bool, parity: int) -> None:
        nonlocal nodes
        step, ek, lk, shift = scaled[k]
        c = sum(lik * a[i] for i, lik in lk) - shift
        s = isqrt((bound - used) // ek)
        # |step a_k + c| <= s
        lo, hi = -((s + c) // step), (s - c) // step
        if zero_above:
            lo = max(lo, 0 if k else 1)
        nodes += max(0, hi - lo + 1)
        if nodes > node_cap:
            raise SizeCapError(f"lattice ball search exceeded node cap {node_cap}")
        for x in range(lo, hi + 1):
            a[k] = x
            t = step * x + c
            u = used + ek * t * t
            key = parity | (x & 1) << k
            if k:
                visit(k - 1, u, zero_above and not x, key)
                continue
            if half and not key:
                continue
            best = minima.get(key)
            if best is None or u < best[0]:
                minima[key] = [u, [tuple(a)]]
            elif u == best[0]:
                best[1].append(tuple(a))

    visit(n - 1, 0, half, 0)
    return minima


def cvp_bruteforce(
    basis: LatticeBasis, t: Target, node_cap: int = DEFAULT_NODE_CAP
) -> CvpSolutionSet:
    """Exact closest-vector solution set.

    One integer ball search around the target's coefficients y, whose
    squared radius is the distance to the coefficient-rounded point: the
    closest points are the least class minimum and every class minimum
    that ties with it.
    """
    y_int, dy = linalg.scaled_ints(basis.coefficients_of(t.coords))
    gram = _integer_gram(basis)
    levels, m = _integer_levels(gram)
    # w = dy (a - y) for a nearest integer point a
    w = [dy * ((2 * yi + dy) // (2 * dy)) - yi for yi in y_int]
    bound = m * sum(wi * linalg.dot_int(row, w) for wi, row in zip(w, gram))
    minima = _class_minima(levels, y_int, dy, bound, node_cap, False)
    best = min(u for u, _ in minima.values())
    coeffs = sorted(a for u, found in minima.values() if u == best for a in found)
    return CvpSolutionSet(
        dist_sq=Fraction(best, m * (dy * basis.den) ** 2),
        points=tuple(LatticePoint.from_coeffs(basis, a) for a in coeffs),
    )


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
    visited = {start}
    frontier = [start]
    for dist in range(1, cap + 1):
        nxt = []
        for node in frontier:
            for s in cell.coeffs:
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
