from fractions import Fraction

import pytest

from voronoi_cvp import (
    ContractViolation,
    LatticeBasis,
    LatticePoint,
    Target,
    TieDetected,
    TRUNCATED,
    count_crossings,
    cvp_bruteforce,
    iterative_slicer,
    line_follow,
    membership,
    mv_walk,
    certify,
    preprocess,
    randomized_straight_line,
    voronoi_norm,
)
from voronoi_cvp.linalg import ceil_frac, norm_sq, sub
from voronoi_cvp.navigation import trace_to_jsonl
from voronoi_cvp.sampling import SamplerConfig, stream_for
from voronoi_cvp.solver import round_to_start

from conftest import make_rng, uniform_voronoi_rejection

import json


F = Fraction


def test_line_follow_two_crossings(z2_cell):
    z = LatticePoint.origin(2)
    a, b = (F(1, 10), F(1, 10)), (F(21, 10), F(1, 10))
    w, tr = line_follow(z2_cell, a, b, z)
    assert w.coeffs == (2, 0)
    assert [e.edge.coeffs for e in tr.events] == [(1, 0), (1, 0)]
    assert [e.alpha for e in tr.events] == [F(1, 5), F(7, 10)]
    # crossing points a + alpha (b - a) sit exactly on the facets they exit
    before = z.ambient
    for e in tr.events:
        point = [ai + e.alpha * (bi - ai) for ai, bi in zip(a, b)]
        lhs = sum(
            ve * (pe - we) for ve, pe, we in zip(e.edge.ambient, point, before)
        )
        assert lhs == norm_sq(e.edge.ambient) / 2
        before = tuple(w + v for w, v in zip(before, e.edge.ambient))


def test_line_follow_trivial_segment(z2_cell):
    z = LatticePoint.origin(2)
    w, tr = line_follow(z2_cell, (F(1, 5), F(1, 5)), (F(1, 5), F(1, 5)), z)
    assert w.coeffs == (0, 0)
    assert tr.events == ()


def test_line_follow_single_crossing(z2_cell):
    z = LatticePoint.origin(2)
    w, tr = line_follow(z2_cell, (F(2, 5), F(0)), (F(3, 5), F(0)), z)
    assert w.coeffs == (1, 0)
    assert len(tr.events) == 1
    assert tr.events[0].alpha == F(1, 2)


def test_line_follow_precondition(z2_cell):
    z = LatticePoint.origin(2)
    with pytest.raises(ContractViolation):
        line_follow(z2_cell, (F(3, 5), F(0)), (F(1), F(1)), z)


def test_line_follow_tie_detection_and_override(z2_cell):
    z = LatticePoint.origin(2)
    a, b = (F(0), F(0)), (F(1), F(1))  # diagonal through the corner (1/2, 1/2)
    with pytest.raises(TieDetected) as exc:
        line_follow(z2_cell, a, b, z)
    assert len(exc.value.tied) == 2
    w, tr = line_follow(z2_cell, a, b, z, tie_break="lexicographic")
    assert w.coeffs == (1, 1)
    assert len(tr.events) == 2
    assert tr.events[0].alpha == tr.events[1].alpha == F(1, 2)


def test_line_follow_budget(z2_cell):
    z = LatticePoint.origin(2)
    y, tr = randomized_straight_line(
        z2_cell,
        z,
        Target.of([F(5), F(1, 10)]),
        (F(1, 10), F(1, 10)),
        F(1, 32),
        max_edges=2,
    )
    assert y is TRUNCATED
    assert len(tr.events) == 2
    # partial trace still satisfies final = start + sum(edges)
    total = [0, 0]
    for e in tr.events:
        total = [a + b for a, b in zip(total, e.edge.coeffs)]
    assert tuple(s + d for s, d in zip(tr.start.coeffs, total)) == tr.final.coeffs


# On Z^2 from x = (-1, 0) to t = (5/8, 5/8) with alpha = 1/32: the shifted
# segment crosses once, then the descent crosses twice.
DESCENT_X, DESCENT_T, DESCENT_Z = (-1, 0), (F(5, 8), F(5, 8)), (F(-1, 4), F(-1, 5))
DESCENT_EVENTS = [("B", F(6, 13), (1, 0)), ("C", F(12, 31), (0, 1)), ("C", F(16, 31), (1, 0))]


@pytest.mark.parametrize(
    "budget, final, events",
    [(None, (1, 1), 3), (2, (0, 1), 2), (1, (0, 0), 1)],
)
def test_edge_budget_spans_both_legs(z2_cell, budget, final, events):
    x = LatticePoint.from_coeffs(z2_cell.basis, DESCENT_X)
    y, tr = randomized_straight_line(
        z2_cell, x, Target.of(DESCENT_T), DESCENT_Z, F(1, 32), max_edges=budget
    )
    assert (y is TRUNCATED) == (budget is not None)
    assert tr.start == x and tr.final.coeffs == final
    if y is not TRUNCATED:
        assert y == tr.final
    assert [(e.phase, e.alpha, e.edge.coeffs) for e in tr.events] == DESCENT_EVENTS[:events]


def test_descent_tie_counts_its_step_within_the_leg(z2_cell):
    # with Z on the diagonal the descent passes the vertex (1/2, 1/2) before
    # its own first crossing, after one crossing on the shifted segment
    x = LatticePoint.from_coeffs(z2_cell.basis, DESCENT_X)
    with pytest.raises(TieDetected) as exc:
        randomized_straight_line(z2_cell, x, Target.of(DESCENT_T), (F(-1, 4), F(-1, 4)), F(1, 32))
    assert exc.value.step == 0
    assert exc.value.alpha == F(16, 31)
    assert {v.coeffs for v in exc.value.tied} == {(1, 0), (0, 1)}


def test_walks_check_each_end_once(z2_cell, monkeypatch):
    calls = []
    check = type(z2_cell).membership_scaled
    monkeypatch.setattr(
        type(z2_cell), "membership_scaled", lambda *a: calls.append(1) or check(*a)
    )
    x = LatticePoint.from_coeffs(z2_cell.basis, DESCENT_X)
    randomized_straight_line(z2_cell, x, Target.of(DESCENT_T), DESCENT_Z, F(1, 32))
    # the sample's scan (the start) and the t - x test keep their products: no
    # membership test; the exit rule puts the end in the returned cell
    assert len(calls) == 0
    mv_walk(z2_cell, Target.of([F(16, 5), F(1, 10)]), LatticePoint.origin(2))
    assert len(calls) == 0  # the start is x itself
    line_follow(z2_cell, (F(1, 10), F(1, 10)), (F(21, 10), F(1, 10)), LatticePoint.origin(2))
    assert len(calls) == 1  # the start


def test_slicer_already_inside(z2_cell):
    z = LatticePoint.from_coeffs(z2_cell.basis, (2, 3))
    y, steps = iterative_slicer(z2_cell, Target.of([F(21, 10), F(3)]), z)
    assert y.coeffs == (2, 3)
    assert steps == 0


def test_slicer_descends_axis(z2_cell):
    z = LatticePoint.from_coeffs(z2_cell.basis, (3, 0))
    seen = []
    y, steps = iterative_slicer(
        z2_cell, Target.of([F(1, 5), F(0)]), z, observer=seen.append
    )
    assert y.coeffs == (0, 0)
    assert steps == 3
    assert [p.coeffs for p in seen] == [(2, 0), (1, 0), (0, 0)]


def test_slicer_strictly_decreases_distance(rand_lattices):
    rng = make_rng(41)
    for basis, cell in rand_lattices[:3]:
        n = basis.n
        t = Target.of([F(int(rng.integers(-40, 41)), 8) for _ in range(n)])
        z = LatticePoint.from_coeffs(basis, [int(rng.integers(-3, 4)) for _ in range(n)])
        dists = [norm_sq(sub(z.ambient, t.coords))]
        y, steps = iterative_slicer(
            cell, t, z, observer=lambda p: dists.append(norm_sq(sub(p.ambient, t.coords)))
        )
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert membership(cell, sub(t.coords, y.ambient))
        sols = cvp_bruteforce(basis, t)
        assert norm_sq(sub(t.coords, y.ambient)) == sols.dist_sq


def test_mv_walk_inside_is_trivial(z2_cell):
    x = LatticePoint.from_coeffs(z2_cell.basis, (1, 1))
    y, tr = mv_walk(z2_cell, Target.of([F(11, 10), F(9, 10)]), x)
    assert y.coeffs == (1, 1)
    assert tr.events == ()


def test_mv_walk_axis(z2_cell):
    x = LatticePoint.origin(2)
    y, tr = mv_walk(z2_cell, Target.of([F(16, 5), F(1, 10)]), x)
    assert y.coeffs == (3, 0)
    assert [e.edge.coeffs for e in tr.events] == [(1, 0)] * 3


def test_mv_walk_matches_oracle_with_length_bound(rand_lattices):
    rng = make_rng(42)
    for basis, cell in rand_lattices[:3]:
        n = basis.n
        for _ in range(4):
            t = Target.of([F(int(rng.integers(-40, 41)), 16) for _ in range(n)])
            x = LatticePoint.origin(n)
            y, tr = mv_walk(cell, t, x)
            assert membership(cell, sub(t.coords, y.ambient))
            sols = cvp_bruteforce(basis, t)
            assert norm_sq(sub(t.coords, y.ambient)) == sols.dist_sq
            pieces = ceil_frac(voronoi_norm(cell, sub(t.coords, x.ambient)) / 2)
            assert len(tr.events) <= (2**n) * max(1, pieces)


def test_mv_walk_is_the_lexicographic_line_walk(z2_cell, rand_lattices):
    # one exact leg along [x, t]: the same end, edges, alphas and phases as
    # line_follow, on half-lattice-point targets, generic ones and, on Z^2,
    # diagonals through cell vertices, where the lexicographic choice decides
    rng = make_rng(14)
    ties = 0
    diagonals = [Target.of([F(k, 2), F(k, 2)]) for k in (-5, 3, 4)]
    for cell, targets in [(z2_cell, list(diagonals))] + [(c, []) for _, c in rand_lattices]:
        basis, n = cell.basis, cell.n
        pre = preprocess(basis, cell)
        for k in range(16):
            if k % 2:
                coords = [F(int(rng.integers(-300, 301)), 37) for _ in range(n)]
            else:
                c = [int(rng.integers(-9, 10)) for _ in range(n)]
                coords = [a / 2 for a in LatticePoint.from_coeffs(basis, c).ambient]
            targets.append(Target.of(coords))
        for t in targets:
            for x in (round_to_start(pre, t), LatticePoint.origin(n)):
                line = line_follow(cell, x.ambient, t.coords, x, tie_break="lexicographic")
                assert mv_walk(cell, t, x) == line
                try:
                    line_follow(cell, x.ambient, t.coords, x)
                except TieDetected:
                    ties += 1
    assert ties >= len(diagonals)  # each diagonal ties from the origin


def test_rsl_frozen_example(z2_cell):
    y, tr = randomized_straight_line(
        z2_cell,
        LatticePoint.origin(2),
        Target.of([1, 1]),
        (F(1, 5), F(-3, 10)),
        F(1, 32),
    )
    assert y.coeffs == (1, 1)
    assert count_crossings(tr) == (2, 0)


def test_rsl_target_in_start_cell(z2_cell):
    x = LatticePoint.from_coeffs(z2_cell.basis, (1, 0))
    y, tr = randomized_straight_line(
        z2_cell, x, Target.of([F(11, 10), F(2, 5)]), (F(2, 5), F(2, 5)), F(1, 4)
    )
    assert y.coeffs == (1, 0)
    assert tr.events == ()
    assert count_crossings(tr) == (0, 0)


def test_rsl_rejects_bad_inputs(z2_cell):
    x = LatticePoint.origin(2)
    t = Target.of([F(3), F(0)])
    with pytest.raises(ContractViolation):
        randomized_straight_line(z2_cell, x, t, (F(2), F(0)), F(1, 4))
    with pytest.raises(ContractViolation):
        randomized_straight_line(z2_cell, x, t, (F(1, 4), F(0)), F(0))


def test_rsl_matches_oracle_z4(z4_cell):
    cfg = SamplerConfig(seed=2024)
    rng = make_rng(43)
    basis = z4_cell.basis
    for i in range(30):
        t = Target.of([F(int(rng.integers(-64, 65)), 16) for _ in range(4)])
        z = uniform_voronoi_rejection(z4_cell, cfg, stream_for(cfg, i))
        x = LatticePoint.origin(4)
        y, tr = randomized_straight_line(z4_cell, x, t, z, F(1, 256))
        assert y is not TRUNCATED
        sols = cvp_bruteforce(basis, t)
        assert {p.coeffs for p in sols.points} >= {y.coeffs}


def test_walks_are_valid_and_monotone(rand_lattices):
    cfg = SamplerConfig(seed=77)
    rng = make_rng(44)
    for li, (basis, cell) in enumerate(rand_lattices):
        n = basis.n
        vr_coeffs = {v.coeffs for v in cell.vectors}
        for i in range(5):
            t = Target.of([F(int(rng.integers(-30, 31)), 8) for _ in range(n)])
            z = uniform_voronoi_rejection(cell, cfg, stream_for(cfg, li, i))
            x = LatticePoint.origin(n)
            y, tr = randomized_straight_line(cell, x, t, z, F(1, 64))
            # walk validity: consecutive centers differ by a relevant vector
            prev = tr.start.coeffs
            for e in tr.events:
                assert e.edge.coeffs in vr_coeffs
                prev = tuple(a + b for a, b in zip(prev, e.edge.coeffs))
            assert prev == tr.final.coeffs
            # exit times strictly increase within each phase
            for phase in "BC":
                alphas = [e.alpha for e in tr.events if e.phase == phase]
                assert all(a < b for a, b in zip(alphas, alphas[1:]))
            b_count, c_count = count_crossings(tr)
            assert b_count + c_count == len(tr.events)


def test_rsl_path_vs_graph_distance(rand_lattices):
    # walking to a lattice target: the realized path can never beat the BFS
    # distance, and its mean stays within the (n/2) ||x-y||_V bound
    from voronoi_cvp import graph_distance_bfs

    cfg = SamplerConfig(seed=88)
    basis, cell = rand_lattices[1]
    n = basis.n
    x = LatticePoint.origin(n)
    y = LatticePoint.from_coeffs(basis, (1,) * n)
    d_exact = graph_distance_bfs(cell, x, y, cap=16)
    vn = voronoi_norm(cell, y.ambient)
    lengths = []
    for i in range(60):
        z = uniform_voronoi_rejection(cell, cfg, stream_for(cfg, i))
        res, tr = randomized_straight_line(cell, x, Target.of(y.ambient), z, F(1, 64))
        assert res is not TRUNCATED
        assert res.coeffs == y.coeffs or membership(cell, sub(y.ambient, res.ambient))
        assert len(tr.events) >= d_exact
        lengths.append(len(tr.events))
    mean = sum(lengths) / len(lengths)
    assert mean <= float(n * vn / 2) + 0.75  # three-sigma-ish slack at N=60


def test_count_crossings_empty(z2_cell):
    x = LatticePoint.origin(2)
    _, tr = mv_walk(z2_cell, Target.of([F(1, 4), F(1, 4)]), x)
    assert count_crossings(tr) == (0, 0)


def test_trace_jsonl_format(z2_cell):
    y, tr = randomized_straight_line(
        z2_cell,
        LatticePoint.origin(2),
        Target.of([F(5, 2), F(1, 3)]),
        (F(1, 8), F(1, 8)),
        F(1, 32),
    )
    text = trace_to_jsonl(tr)
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert len(lines) == len(tr.events)
    for obj, e in zip(lines, tr.events):
        assert set(obj) == {"alpha", "edge", "phase"}
        assert Fraction(obj["alpha"]) == e.alpha
        assert obj["phase"] in ("B", "C")
        assert tuple(obj["edge"]) == e.edge.coeffs


def test_walks_refuse_a_point_of_another_basis(z2_cell):
    # on Z^2 the coefficients (1, 0) of a point of 2Z^2 name (1, 0), not its (2, 0);
    # the target lies in the cell of (2, 0), so the walks' early returns would hand it back
    x = LatticePoint.from_coeffs(LatticeBasis.from_rows([[2, 0], [0, 2]]), (1, 0))
    t = Target.of([F(21, 10), F(1, 10)])
    walks = [
        lambda: randomized_straight_line(z2_cell, x, t, (0, 0), 1),
        lambda: mv_walk(z2_cell, t, x),
        lambda: line_follow(z2_cell, x.ambient, t.coords, x),
        lambda: iterative_slicer(z2_cell, t, x),
        lambda: certify(preprocess(z2_cell.basis, z2_cell), t, x),
    ]
    for walk in walks:
        with pytest.raises(ContractViolation, match="another basis"):
            walk()
