from fractions import Fraction

import pytest

from voronoi_cvp import (
    LatticeBasis,
    LatticePoint,
    SizeCapError,
    Target,
    compute_relevant_vectors,
    cvp_bruteforce,
    graph_distance_bfs,
    membership,
    voronoi_norm,
)
from voronoi_cvp.lattice import random_rational_target
from voronoi_cvp.linalg import norm_sq

from conftest import A2_PLUS_LINE, D4, enumerate_ball, fraction_cvp, make_rng, shortest_vector


def coeff_set(points):
    return {p.coeffs for p in points}


def test_enumerate_ball_z2_unit():
    b = LatticeBasis.identity(2)
    pts = enumerate_ball(b, (0, 0), 1)
    assert coeff_set(pts) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_ball_z2_halfway():
    b = LatticeBasis.identity(2)
    pts = enumerate_ball(b, (Fraction(1, 2), 0), Fraction(1, 4))
    assert coeff_set(pts) == {(0, 0), (1, 0)}


def test_enumerate_ball_even_sum_lattice(skew2_basis):
    # nearest nonzero points have squared length 2, so radius 1 sees only 0
    assert coeff_set(enumerate_ball(skew2_basis, (0, 0), 1)) == {(0, 0)}
    pts = enumerate_ball(skew2_basis, (0, 0), 2)
    assert len(pts) == 5
    assert {p.ambient for p in pts} == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(-1)),
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    }


def test_shortest_vector_examples(skew2_basis):
    for n in (1, 2, 3, 4):
        lam, mins = shortest_vector(LatticeBasis.identity(n))
        assert lam == 1
        assert len(mins) == 2 * n
    lam, mins = shortest_vector(LatticeBasis.from_rows([[Fraction(5, 2)]]))
    assert lam == Fraction(25, 4)
    lam, mins = shortest_vector(skew2_basis)
    assert lam == 2
    assert len(mins) == 4


def test_cvp_rounding_case():
    b = LatticeBasis.identity(2)
    sols = cvp_bruteforce(b, Target.of([Fraction(3, 10), Fraction(7, 10)]))
    assert sols.dist_sq == Fraction(9, 50)
    assert coeff_set(sols.points) == {(0, 1)}


def test_cvp_deep_hole():
    b = LatticeBasis.identity(2)
    sols = cvp_bruteforce(b, Target.of([Fraction(1, 2), Fraction(1, 2)]))
    assert sols.dist_sq == Fraction(1, 2)
    assert coeff_set(sols.points) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_cvp_matches_fraction_reference(rand_lattices, high_dim_cells):
    # the integer search against the independent Fraction search, on ties
    # (deep holes, facet midpoints v/2), lattice points and random targets;
    # counts are pinned where the tie structure is known
    half = Fraction(1, 2)
    line = LatticeBasis.from_rows([[Fraction(5, 2)]])
    cases = [
        (LatticeBasis.identity(2), [half, half], 4),
        (D4, [half] * 4, 8),
        (line, [Fraction(5, 4)], 2),
        (line, [Fraction(-7, 3)], 1),
    ]
    for basis in (A2_PLUS_LINE, D4):
        for v in compute_relevant_vectors(basis).vectors:
            cases.append((basis, [c / 2 for c in v.ambient], 2))
    rng = make_rng(74)
    bases = [line, A2_PLUS_LINE, D4] + [b for b, _ in rand_lattices]
    bases += [high_dim_cells[n].basis for n in (6, 7)]
    for basis in bases:
        a = [int(rng.integers(-3, 4)) for _ in range(basis.n)]
        cases.append((basis, [0] * basis.n, 1))  # 0 is never halved away
        cases.append((basis, LatticePoint.from_coeffs(basis, a).ambient, 1))
        cases += [(basis, random_rational_target(basis, rng).coords, None) for _ in range(3)]
    for basis, coords, count in cases:
        t = Target.of(coords)
        got = cvp_bruteforce(basis, t)
        assert got == fraction_cvp(basis, t)
        assert count is None or len(got.points) == count
    with pytest.raises(SizeCapError):
        cvp_bruteforce(LatticeBasis.identity(3), Target.of([half] * 3), node_cap=3)


def test_cvp_minimizers_exact_and_complete(rand_lattices):
    rng = make_rng(71)
    for basis, _ in rand_lattices:
        for _ in range(5):
            t = random_rational_target(basis, rng)
            sols = cvp_bruteforce(basis, t)
            for p in sols.points:
                d = sum((a - c) ** 2 for a, c in zip(t.coords, p.ambient))
                assert d == sols.dist_sq
            # independently re-enumerate the closed ball at the optimum
            ball = enumerate_ball(basis, t, sols.dist_sq)
            assert coeff_set(ball) == coeff_set(sols.points)


def test_cvp_minimizers_inside_cell(rand_lattices):
    rng = make_rng(72)
    for basis, cell in rand_lattices:
        t = random_rational_target(basis, rng)
        sols = cvp_bruteforce(basis, t)
        for p in sols.points:
            diff = tuple(a - c for a, c in zip(t.coords, p.ambient))
            assert membership(cell, diff)
            assert voronoi_norm(cell, diff) <= 1


def test_lambda1_matches_min_relevant_vector(rand_lattices):
    for basis, cell in rand_lattices:
        lam, _ = shortest_vector(basis)
        assert lam == cell.lambda1_sq
        assert lam == min(norm_sq(v.ambient) for v in cell.vectors)


def test_graph_distance_examples(z2_cell, z3_cell, z4_cell):
    for cell, n in ((z2_cell, 2), (z3_cell, 3), (z4_cell, 4)):
        origin = LatticePoint.origin(n)
        ones = LatticePoint.from_coeffs(cell.basis, (1,) * n)
        assert graph_distance_bfs(cell, origin, ones, cap=10) == n
        assert graph_distance_bfs(cell, ones, ones, cap=10) == 0
    two_one = LatticePoint.from_coeffs(z2_cell.basis, (2, 1))
    assert graph_distance_bfs(z2_cell, LatticePoint.origin(2), two_one, cap=10) == 3


def test_graph_distance_cap_sentinel(z2_cell):
    far = LatticePoint.from_coeffs(z2_cell.basis, (5, 5))
    assert graph_distance_bfs(z2_cell, LatticePoint.origin(2), far, cap=3) is None


def test_graph_distance_sandwich(rand_lattices):
    rng = make_rng(73)
    for basis, cell in rand_lattices[:2]:
        n = basis.n
        origin = LatticePoint.origin(n)
        for _ in range(6):
            coeffs = [int(rng.integers(-2, 3)) for _ in range(n)]
            y = LatticePoint.from_coeffs(basis, coeffs)
            d = graph_distance_bfs(cell, origin, y, cap=12)
            assert d is not None
            vn = voronoi_norm(cell, y.ambient)
            assert 2 * d >= vn and 2 * d <= n * vn


def test_enumeration_node_cap():
    b = LatticeBasis.identity(3)
    with pytest.raises(SizeCapError):
        enumerate_ball(b, (0, 0, 0), 100, node_cap=10)
