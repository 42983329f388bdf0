"""The cell's int64 scans against Python integers.

Every scan over the relevant vectors is one int64 matrix product where
`VoronoiCellData.scan` proves it exact.  Each check runs a function three
ways: as it is, with `scan` replaced by the `dot_int` reference loop of
conftest (the same code around the product, on exact values), and with
`scan` proving nothing, so that every caller takes its own Python-integer
path.  The three outcomes must agree, ties and `TieDetected` included.
"""

from fractions import Fraction

import numpy as np
import pytest

from voronoi_cvp import (
    ContractViolation,
    LatticeBasis,
    LatticePoint,
    SamplerConfig,
    Target,
    TieDetected,
    VoronoiCellData,
    compute_relevant_vectors,
    iterative_slicer,
    line_follow,
    membership,
    mv_walk,
    randomized_straight_line,
    uniform_sample,
    voronoi_norm,
)
from voronoi_cvp.navigation import TRUNCATED, slicer_products
from voronoi_cvp.sampling import CellSample, stream_for

from conftest import A2_PLUS_LINE, D4, make_rng, reference_scan, scaled_basis

F = Fraction
K = 1000  # a facet centre v/2 is K v / (2 den K); one unit of K nudges it in or out


def outcome(fn):
    try:
        return fn()
    except TieDetected as e:
        return "tie", e.alpha, [v.coeffs for v in e.tied], e.step


def three_ways(monkeypatch, fn):
    """fn() on the int64 products, on the reference loop and on the Python paths,
    and for the first run, whether each scan it made was an int64 product."""
    scan = VoronoiCellData.scan
    exact = []

    def spy(self, *args):
        out = scan(self, *args)
        exact.append(out is not None)
        return out

    runs = []
    for stand_in in (spy, reference_scan, lambda *args: None):
        monkeypatch.setattr(VoronoiCellData, "scan", stand_in)
        runs.append(outcome(fn))
    monkeypatch.setattr(VoronoiCellData, "scan", scan)
    return runs, exact


def facet_points(cell, count=6):
    """(x_int, dx, k): the facet centres v/2 of the first `count` relevant v as
    k v / (2 den K), for k = K and nudged one unit inward (K - 1) and outward (K + 1)."""
    den2 = 2 * cell.basis.den
    for v in cell._vr_int[:count]:
        for k in (K, K - 1, K + 1):
            yield tuple(k * c for c in v), den2 * K, k


@pytest.fixture(scope="module")
def cells(high_dim_cells, rand_lattices, z2_cell):
    ties = [compute_relevant_vectors(b) for b in (A2_PLUS_LINE, D4)]
    return [high_dim_cells[6], high_dim_cells[7], *(c for _, c in rand_lattices), z2_cell, *ties]


def test_membership_and_norm_match_the_python_path(cells, monkeypatch):
    for cell in cells:
        for x_int, dx, k in facet_points(cell):
            runs, exact = three_ways(monkeypatch, lambda: cell.membership_scaled(x_int, dx))
            assert runs == [k <= K] * 3 and exact == [True]
            x = [F(c, dx) for c in x_int]
            runs, exact = three_ways(monkeypatch, lambda: voronoi_norm(cell, x))
            assert runs == [F(k, K)] * 3 and exact == [True]


def slicer_path(cell, t_int, dt, z):
    path = []
    y, steps, _ = slicer_products(cell, t_int, dt, z, path.append)
    return y, steps, [p.coeffs for p in path]


def test_slicer_matches_the_python_path(cells, monkeypatch):
    for cell in cells:
        # the facet centre ties 0 with v, so from the origin it is not improved on
        for z in (LatticePoint.origin(cell.n), cell.vectors[-1]):
            for x_int, dx, _ in facet_points(cell):
                runs, exact = three_ways(monkeypatch, lambda: slicer_path(cell, x_int, dx, z))
                assert runs[0] == runs[1] == runs[2] and exact and all(exact)


def test_walks_match_the_python_path(cells, monkeypatch):
    for cell in cells:
        x = cell.vectors[0]
        shift = [3 * F(c, cell.basis.den) for c in cell._vr_int[2]]
        z_sample = [F(c * (K - 1), 2 * cell.basis.den * K) for c in cell._vr_int[1]]
        for x_int, dx, _ in facet_points(cell, 4):
            # a facet centre (or its nudge) three lattice steps away: several crossings
            t = Target.of([F(c, dx) + s for c, s in zip(x_int, shift)])
            walks = (
                lambda: mv_walk(cell, t, x),
                lambda: line_follow(cell, x.ambient, t.coords, x, tie_break="lexicographic"),
                lambda: line_follow(cell, x.ambient, t.coords, x),
                lambda: randomized_straight_line(cell, x, t, z_sample, F(1, 2)),
            )
            for walk in walks:
                runs, exact = three_ways(monkeypatch, walk)
                assert runs[0] == runs[1] == runs[2] and exact and all(exact)


def test_rsl_tests_t_minus_x_as_an_int64_product(high_dim_cells, monkeypatch):
    # the sampler's own scan proved Z in the cell, so the walk's first scan is the test
    # of t - x, over lcm(den, t.den) alone: one int64 product, and the only scan when
    # t lies in the start cell
    cell = high_dim_cells[7]
    x, den2 = cell.vectors[0], 2 * cell.basis.den
    z_sample = uniform_sample(cell, SamplerConfig(seed=3))
    for k in (0, K - 1, 3 * K):  # t in the cell of x, just inside, three cells on
        t = Target.of([a + F(k * c, den2 * K) for a, c in zip(x.ambient, cell._vr_int[1])])
        walk = lambda: randomized_straight_line(cell, x, t, z_sample, F(1, 2))
        runs, exact = three_ways(monkeypatch, walk)
        assert runs[0] == runs[1] == runs[2] and exact[0] is True
        assert (runs[0][1].events == ()) == (k < K) == (len(exact) == 1)


def end_in_cell(cell, walk, a, b, legs=None):
    """Whether a walk's outcome is consistent with the exit rule: a tie, or a
    returned point whose cell holds b, or a truncated trace whose last exit point
    lies in the cell it stopped in.  `legs` maps a phase to its segment (a, b)."""
    if walk[0] == "tie":
        return True
    y, trace = walk
    if y is not TRUNCATED:
        return membership(cell, [bi - yi for bi, yi in zip(b, y.ambient)])
    if not trace.events:
        return True
    e = trace.events[-1]
    a, b = legs[e.phase] if legs else (a, b)
    point = [ai + e.alpha * (bi - ai) for ai, bi in zip(a, b)]
    return membership(cell, [pi - wi for pi, wi in zip(point, trace.final.ambient)])


def test_every_walk_ends_in_the_cell_it_returns(cells, monkeypatch):
    # the leg loop makes no end scan; the walks of the fixtures end in the cells they
    # return on the int64 products, the reference loop and the Python paths alike,
    # in both tie modes and under edge budgets
    cfg = SamplerConfig(seed=8)
    seen = {}
    for ci, cell in enumerate(cells):
        x = cell.vectors[0]
        shift = [3 * F(c, cell.basis.den) for c in cell._vr_int[2]]
        z = uniform_sample(cell, cfg, stream_for(cfg, ci))
        for x_int, dx, _ in facet_points(cell, 3):
            t = Target.of([F(c, dx) + s for c, s in zip(x_int, shift)])
            xa = x.ambient
            walks = [
                (lambda: mv_walk(cell, t, x), xa, t.coords, None),
                (lambda: line_follow(cell, xa, t.coords, x), xa, t.coords, None),
                (lambda: line_follow(cell, xa, t.coords, x, tie_break="lexicographic"),
                 xa, t.coords, None),
            ]
            for alpha in (F(1, 3), F(1)):
                za = z.coords
                a1 = [xi + zi for xi, zi in zip(xa, za)]
                b1 = [ti + zi for ti, zi in zip(t.coords, za)]
                b2 = [ti + alpha * zi for ti, zi in zip(t.coords, za)]
                legs = {"B": (a1, b1), "C": (b1, b2)}
                for budget in (None, 1, 2):
                    walks.append((
                        lambda alpha=alpha, budget=budget: randomized_straight_line(
                            cell, x, t, z, alpha, max_edges=budget
                        ),
                        a1, b2, legs,
                    ))
            for walk, a, b, legs in walks:
                runs, _ = three_ways(monkeypatch, walk)
                assert runs[0] == runs[1] == runs[2]
                assert all(end_in_cell(cell, run, a, b, legs) for run in runs)
                kind = runs[0][0] if runs[0][0] in ("tie", TRUNCATED) else "end"
                seen[kind] = seen.get(kind, 0) + 1
    # segments through the vertex (1/2, 1/2) of Z^2 and the vertex e_1 of D4's cell
    for cell, b in ((cells[-3], (F(7, 4), F(7, 4))), (cells[-1], (F(5, 2), 0, 0, 0))):
        origin, a = LatticePoint.origin(cell.n), (0,) * cell.n
        for tie_break in ("error", "lexicographic"):
            runs, _ = three_ways(monkeypatch, lambda: line_follow(cell, a, b, origin, tie_break))
            assert runs[0] == runs[1] == runs[2]
            assert all(end_in_cell(cell, run, a, b) for run in runs)
            kind = runs[0][0] if runs[0][0] in ("tie", TRUNCATED) else "end"
            seen[kind] = seen.get(kind, 0) + 1
    assert sum(seen.values()) == len(cells) * 9 * 9 + 4 and len(seen) == 3


def test_an_rsl_attempt_scans_only_t_minus_x_in_full(rand_lattices, monkeypatch):
    # the walk takes its candidate facets from the t - x test and from the sample's
    # products: the only scan of every relevant vector is that test, over lcm(den, t.den);
    # no leg direction, no second test of Z and no end point is scanned
    scan = VoronoiCellData.scan
    full = []

    def spy(self, x, c1, c2, rows=None):
        if rows is None:
            full.append((list(x), c1, c2))
        return scan(self, x, c1, c2, rows)

    monkeypatch.setattr(VoronoiCellData, "scan", spy)
    cfg = SamplerConfig(seed=4)
    crossed = set()
    for li, (basis, cell) in enumerate(rand_lattices):
        x = cell.vectors[1]
        rng = make_rng(li)
        for i in range(6):
            t = Target.of([F(int(rng.integers(-40, 41)), 7) for _ in range(basis.n)])
            z = uniform_sample(cell, cfg, stream_for(cfg, li, i))
            full.clear()
            y, trace = randomized_straight_line(cell, x, t, z, F(1, 4))
            (x_t, t_t), d0 = x.scaled_with(basis, t)
            assert full == [([b - a for a, b in zip(x_t, t_t)], 2 * basis.den, -d0)]
            crossed.update(e.phase for e in trace.events)
    assert crossed == {"B", "C"}


def test_a_walk_refuses_a_sample_of_another_cell(z2_cell, rand_lattices):
    other = compute_relevant_vectors(LatticeBasis.identity(2))
    x, t = LatticePoint.origin(2), Target.of([F(5, 2), F(1, 3)])
    z = CellSample.of(other, (F(1, 4), F(-1, 8)))
    assert randomized_straight_line(z2_cell, x, t, z, F(1, 4)) == randomized_straight_line(
        z2_cell, x, t, z.coords, F(1, 4)
    )  # an equal cell
    basis, cell = rand_lattices[0]
    with pytest.raises(ContractViolation, match="another cell"):
        randomized_straight_line(cell, LatticePoint.origin(2), t, z, F(1, 4))


def test_ties_match_the_python_path(z2_cell, monkeypatch):
    d4_cell = compute_relevant_vectors(D4)
    origin2, origin4 = LatticePoint.origin(2), LatticePoint.origin(4)
    # on Z^2 the descent to (5/8, 5/8) with Z on the diagonal passes the vertex (1/2, 1/2)
    x = LatticePoint.from_coeffs(z2_cell.basis, (-1, 0))
    t = Target.of([F(5, 8), F(5, 8)])
    walk = lambda: randomized_straight_line(z2_cell, x, t, (F(-1, 4), F(-1, 4)), F(1, 32))
    runs, exact = three_ways(monkeypatch, walk)
    assert runs == [("tie", F(16, 31), [(0, 1), (1, 0)], 0)] * 3 and all(exact)
    # segments through the vertex (1/2, 1/2) of Z^2 and the vertex e_1 of D4's cell,
    # where the coset of 2 e_1 ties: an error, or one lexicographic walk
    for cell, z, b in (
        (z2_cell, origin2, (F(7, 4), F(7, 4))),
        (d4_cell, origin4, (F(5, 2), 0, 0, 0)),
    ):
        a = (0,) * cell.n
        for tie_break in ("error", "lexicographic"):
            walk = lambda: line_follow(cell, a, b, z, tie_break=tie_break)
            runs, exact = three_ways(monkeypatch, walk)
            assert runs[0] == runs[1] == runs[2] and exact and all(exact)
            assert (runs[0][0] == "tie") == (tie_break == "error")
        runs, _ = three_ways(monkeypatch, lambda: mv_walk(cell, Target.of(b), z))
        assert runs[0] == runs[1] == runs[2]


def test_scans_switch_to_python_integers_at_the_bound(high_dim_cells, monkeypatch):
    cell = high_dim_cells[7]
    den2 = 2 * cell.basis.den
    l1_max, norm_max = cell._bounds
    v = cell._vr_int[0]
    # for x = k v over dx = den2 k the bound is k den2 (l1_max max|v| + max <v_int, v_int>)
    top = (2**63 - 1) // (den2 * (l1_max * max(map(abs, v)) + norm_max))
    for k in (top, top + 1):
        x_int, dx = tuple(k * c for c in v), den2 * k
        scan = cell.scan(x_int, den2, -dx)
        assert (scan is not None) == (k == top)
        if scan is not None:
            assert scan.dtype == np.int64
            assert scan.tolist() == reference_scan(cell, x_int, den2, -dx).tolist()
            # some entries sit within a factor 64 of the int64 limit
            assert max(map(abs, scan.tolist())) > 2**57
        for nudge in (0, -1, 1):
            y_int = tuple((k + nudge) * c for c in v)
            runs, _ = three_ways(monkeypatch, lambda: cell.membership_scaled(y_int, dx))
            assert runs == [nudge <= 0] * 3
        # the slicer scans (z - t) ds with ds = dx, the same bound
        z0 = LatticePoint.origin(cell.n)
        runs, exact = three_ways(monkeypatch, lambda: slicer_path(cell, x_int, dx, z0))
        assert runs[0] == runs[1] == runs[2] and exact[0] == (k == top)
    # past the facet 3v/2 from the origin: the crossings into the cells of v and 2v are
    # found on int64, but the next exit times, from the cell of 2v, exceed the bound
    # and take Python integers
    t = Target.of([F(3 * (top + 1) * c, den2 * top) for c in v])
    runs, exact = three_ways(monkeypatch, lambda: mv_walk(cell, t, LatticePoint.origin(cell.n)))
    assert runs[0] == runs[1] == runs[2]
    assert [e.edge.coeffs for e in runs[0][1].events] == [cell.vectors[0].coeffs] * 2
    assert True in exact and False in exact


def test_a_basis_past_int64_takes_python_integers(rand_lattices, monkeypatch):
    s = 2**64  # every image entry is past int64
    for basis, small in rand_lattices[:3]:
        big = compute_relevant_vectors(scaled_basis(basis, s))
        assert big._vr_np is None and small._vr_np is not None
        assert [v.coeffs for v in big.vectors] == [v.coeffs for v in small.vectors]
        origin = LatticePoint.origin(basis.n)
        for x_int, dx, _ in facet_points(small, 4):
            x = [F(c, dx) for c in x_int]
            t = [s * c for c in x]
            runs, exact = three_ways(monkeypatch, lambda: membership(big, t))
            assert runs == [membership(small, x)] * 3 and exact == [False]
            assert voronoi_norm(big, t) == voronoi_norm(small, x)
            yb, steps_b = iterative_slicer(big, Target.of(t), origin)
            ys, steps_s = iterative_slicer(small, Target.of(x), origin)
            assert (yb.coeffs, steps_b) == (ys.coeffs, steps_s)
            far = Target.of([3 * c for c in t])
            _, trace = mv_walk(big, far, origin)
            _, ref = mv_walk(small, Target.of([3 * c for c in x]), origin)
            assert trace.events == ref.events


def test_a_large_denominator_with_small_images(monkeypatch):
    # images of 1 over den = 2^70: the factor 2 den of a scan does not fit in int64
    cell = compute_relevant_vectors(LatticeBasis.from_rows([[F(1, 2**70)]]))
    assert cell._vr_np is not None
    for x, inside in (((0,), True), ((F(1, 2**71),), True), ((F(1, 2**71) + F(1, 2**90),), False)):
        runs, exact = three_ways(monkeypatch, lambda: membership(cell, x))
        assert runs == [inside] * 3 and exact == [False]


def test_point_scaled_with_vectors_matches_fractions(rand_lattices):
    rng = make_rng(5)
    for basis, cell in rand_lattices:
        for v in cell.vectors[:4]:
            t = [F(int(rng.integers(-99, 100)), int(rng.integers(1, 40))) for _ in range(basis.n)]
            (k0, k1), d = v.scaled_with(basis, Target.of(t))
            assert d % basis.den == 0
            assert [F(c, d) for c in k0] == list(v.ambient) and [F(c, d) for c in k1] == t
