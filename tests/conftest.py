"""Shared fixtures and the reference tools the tests check the solver against.

The reference tools have no caller in the package: an exact rejection
sampler, Gamma radial draws, a `Fraction` ball enumerator with the
closest-vector search and shortest-vector oracle built on it, the
per-coset relevant-vector search, exact rank, and a `dot_int` loop over the
relevant vectors for the cell's int64 scans.
"""

from fractions import Fraction
from math import isqrt, sqrt
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

from voronoi_cvp import (
    ContractViolation,
    LatticeBasis,
    LatticePoint,
    SizeCapError,
    Target,
    VoronoiCellData,
    compute_relevant_vectors,
    preprocess,
)
from voronoi_cvp import linalg
from voronoi_cvp.lattice import DEFAULT_DIM_CAP, coset_reps_mod2, random_rational_basis
from voronoi_cvp.linalg import norm_sq, sub
from voronoi_cvp.oracles import DEFAULT_NODE_CAP, CvpSolutionSet
from voronoi_cvp.sampling import stream_for

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")

# The hexagonal A2 has no rational basis in the plane; summed orthogonally
# with the line through (1, 1, 1) it has one, and its three mixed cosets tie.
A2_PLUS_LINE = LatticeBasis.from_rows([[1, 0, 1], [-1, 1, 1], [0, -1, 1]])
# D4 = {x in Z^4 : sum of x even}; the cosets of 2 e_i tie.
D4 = LatticeBasis.from_rows([[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q), tight to within 1/denominator."""
    if q < 0:
        raise ValueError("negative radicand")
    s = q.numerator * q.denominator
    u = isqrt(s)
    if u * u == s:
        return Fraction(u, q.denominator)
    return Fraction(u + 1, q.denominator)


def uniform_voronoi_rejection(cell, cfg, stream=None, attempt_cap=200_000):
    """Exactly uniform cell sample (up to the dyadic grid) by rejection.

    Proposals are uniform over the bounding box [-R, R]^n from the outer
    sandwich radius; each proposal is membership-tested exactly.  Feasible
    only while the cell volume is a workable fraction of the box volume, so
    it serves as the small-n reference for `uniform_sample`.
    """
    stream = stream or stream_for(cfg)
    n = cell.n
    r_up = sqrt_upper(cell.outer_radius_sq)
    m = 1 << cfg.precision_bits
    dx = r_up.denominator * m
    p = r_up.numerator
    for _ in range(attempt_cap):
        x_int = tuple(
            p * (2 * stream.getrandbits(cfg.precision_bits) - m + 1) for _ in range(n)
        )
        if cell.membership_scaled(x_int, dx):
            return tuple(Fraction(xi, dx) for xi in x_int)
    raise SizeCapError("rejection sampler exceeded its attempt cap")


def reference_scan(cell, x, c1, c2, rows=None):
    """c1 <v, x> + c2 <v, v> over the relevant images v (or the `rows` among them).

    A `dot_int` loop on Python integers, returned as an object array: a
    stand-in for `VoronoiCellData.scan` that is exact at any size.
    """
    idx = range(len(cell.vectors)) if rows is None else rows
    vr, nv = cell._vr_int, cell._norm_int
    return np.array([c1 * linalg.dot_int(vr[i], x) + c2 * nv[i] for i in idx], dtype=object)


def gamma_sample(k: int, theta: float, stream) -> float:
    """Gamma(k, theta) draw for integer shape: sum of k exponential(theta)."""
    if k < 1 or int(k) != k:
        raise ContractViolation("gamma shape must be a positive integer")
    if theta <= 0:
        raise ContractViolation("gamma scale must be positive")
    return theta * float(stream.gen.standard_exponential(int(k)).sum())


def theta_for_dimension(n: int) -> float:
    """Radial scale making Gamma(n+1, theta) concentrate just above 1."""
    if n < 2:
        raise ContractViolation("radial scale is defined for n >= 2")
    return 1.0 / ((n + 1) - sqrt(2.0 * (n + 1)))


def gamma_factor_for_dimension(n: int) -> float:
    """Shrink factor: with probability >= 1/2 the radial draw lies in [1, 1/factor]."""
    if n < 2:
        raise ContractViolation("shrink factor is defined for n >= 2")
    return 1.0 / (1.0 + 2.0 * sqrt(2.0) / (sqrt(n + 1.0) - sqrt(2.0)))


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by `Fraction` row reduction, independent of `linalg.inverse`."""
    rows = [[linalg.frac(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def fraction_gram(basis: LatticeBasis) -> list[list[Fraction]]:
    """G[i][j] = <b_i, b_j>, the `Fraction` Gram matrix of the basis columns."""
    return [[linalg.dot(a, b) for b in basis.columns] for a in basis.columns]


def floor_of_sum_with_sqrt(m: Fraction, q: Fraction) -> int:
    """floor(m + sqrt(q)) computed exactly for rational m and q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    mp, mq = m.numerator, m.denominator
    qp, qq = q.numerator, q.denominator
    s = qp * qq  # sqrt(q) == sqrt(s) / qq
    u = isqrt(mq * mq * s)  # u <= mq * sqrt(s) < u + 1
    return (mp * qq + u) // (mq * qq)


def ceil_of_diff_with_sqrt(m: Fraction, q: Fraction) -> int:
    """ceil(m - sqrt(q)) computed exactly for rational m and q >= 0."""
    return -floor_of_sum_with_sqrt(-m, q)


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
    L, d = linalg.ldl(fraction_gram(basis))

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
        lo = ceil_of_diff_with_sqrt(mid, bound)
        hi = floor_of_sum_with_sqrt(mid, bound)
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


def fraction_cvp(
    basis: LatticeBasis, t: Target, node_cap: int = DEFAULT_NODE_CAP
) -> CvpSolutionSet:
    """Exact closest-vector solution set by the `Fraction` ball search.

    The search radius is seeded by the distance to the coefficient-rounded
    point and shrinks as better points are found.
    """
    y = basis.coefficients_of(t.coords)
    rounded = tuple(round(a) for a in y)
    seed_pt = LatticePoint.from_coeffs(basis, rounded).ambient
    seed_sq = linalg.norm_sq(linalg.sub(t.coords, seed_pt))
    best, coeff_list = _ball_search(basis, t.coords, seed_sq, node_cap, shrink=True)
    pts = [LatticePoint.from_coeffs(basis, a) for a in coeff_list]
    pts.sort(key=lambda p: p.coeffs)
    return CvpSolutionSet(dist_sq=best, points=tuple(pts))


def shortest_vector(basis):
    """Exact first minimum: (lambda_1^2, all +-minimizers).

    Every lattice point in the ball of squared radius min_j G_jj is listed;
    the shortest basis vector lies in it, so the ball holds every minimizer.
    """
    radius_sq = min(linalg.norm_sq(c) for c in basis.columns)
    ball = enumerate_ball(basis, (0,) * basis.n, radius_sq)
    nonzero = [p for p in ball if any(p.coeffs)]
    best = min(norm_sq(p.ambient) for p in nonzero)
    return best, [p for p in nonzero if norm_sq(p.ambient) == best]


def scaled_basis(basis: LatticeBasis, factor) -> LatticeBasis:
    """The basis with every column multiplied by `factor`."""
    f = linalg.frac(factor)
    return LatticeBasis.from_columns(tuple(linalg.scale(f, c) for c in basis.columns))


def relevant_vectors_by_coset(basis, dim_cap=DEFAULT_DIM_CAP):
    """Find the relevant vectors by minimizing each nonzero coset of 2L.

    A coset B p + 2L (p a nonzero 0/1 vector) contributes the pair +-v
    exactly when its minimum-norm element is unique up to sign; ties mean
    the coset induces no facet.
    """
    doubled = scaled_basis(basis, 2)
    out: list[LatticePoint] = []
    for p in coset_reps_mod2(basis.n, dim_cap):
        c = LatticePoint.from_coeffs(basis, p).ambient
        sols = fraction_cvp(doubled, Target(coords=c))
        # minimum-norm coset elements are c - z over closest z in 2L
        if len(sols.points) != 2:
            continue  # tied minimizers: no facet from this coset
        v1, v2 = (
            LatticePoint.from_coeffs(basis, tuple(pi - 2 * ai for pi, ai in zip(p, z.coeffs)))
            for z in sols.points
        )
        for v, z in zip((v1, v2), sols.points):
            assert v.ambient == sub(c, z.ambient)
        if tuple(-x for x in v1.coeffs) != v2.coeffs:
            raise ContractViolation("coset minimizers are not a +- pair")
        lead = next(x for x in v1.coeffs if x)
        out.extend((v1, v2) if lead > 0 else (v2, v1))
    return VoronoiCellData(basis=basis, coeffs=tuple(v.coeffs for v in out))


@pytest.fixture(scope="session")
def z2_cell():
    return compute_relevant_vectors(LatticeBasis.identity(2))


@pytest.fixture(scope="session")
def z3_cell():
    return compute_relevant_vectors(LatticeBasis.identity(3))


@pytest.fixture(scope="session")
def z4_cell():
    return compute_relevant_vectors(LatticeBasis.identity(4))


@pytest.fixture(scope="session")
def skew2_basis():
    # columns (2,0) and (1,1): the sublattice of Z^2 with even coordinate sum.
    # Degenerate cell (a rotated square): only 4 facets, lambda1^2 = 2.
    return LatticeBasis.from_rows([[2, 1], [0, 1]])


@pytest.fixture(scope="session")
def skew2_cell(skew2_basis):
    return compute_relevant_vectors(skew2_basis)


@pytest.fixture(scope="session")
def rand_lattices():
    """Fixed random rational lattices (seeded) with their cells, n = 2..4."""
    rng = make_rng(20240817)
    out = []
    for n in (2, 3, 3, 4):
        basis = random_rational_basis(n, rng)
        out.append((basis, compute_relevant_vectors(basis)))
    return out


@pytest.fixture(scope="session")
def high_dim_cells():
    """Fixed random rational lattices (seeded) at n = 6 and 7, keyed by n."""
    rng = make_rng(20261018)
    return {n: compute_relevant_vectors(random_rational_basis(n, rng)) for n in (6, 7)}


@pytest.fixture(scope="session")
def z2_pre():
    return preprocess(LatticeBasis.identity(2))
