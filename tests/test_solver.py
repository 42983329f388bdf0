from fractions import Fraction

import pytest

from voronoi_cvp import (
    LatticeBasis,
    LatticePoint,
    RestartLimitExceeded,
    SamplerConfig,
    Target,
    TieDetected,
    certify,
    cvp_bruteforce,
    make_query_params,
    preprocess,
    query,
    round_to_start,
    voronoi_norm,
)
from voronoi_cvp import solver
from voronoi_cvp.cli import main
from voronoi_cvp.experiments import run_crossing_trials
from voronoi_cvp.lattice import qbar, random_rational_target
from voronoi_cvp.linalg import norm_sq, rank, sub
from voronoi_cvp.sampling import stream_for
from voronoi_cvp.solver import QueryParams

from conftest import make_rng

F = Fraction


def test_preprocess_integer_lattice():
    for n in (2, 3, 4):
        pre = preprocess(LatticeBasis.identity(n))
        frame_dirs = {tuple(abs(c) for c in v.coeffs) for v in pre.frame}
        expected = {tuple(int(i == j) for i in range(n)) for j in range(n)}
        assert frame_dirs == expected
        assert pre.frame_sum_sq == n  # mu <= sqrt(n)/2
        assert qbar(pre.basis) == 1


def test_preprocess_one_dimensional():
    pre = preprocess(LatticeBasis.from_rows([[F(5, 2)]]))
    assert len(pre.frame) == 1
    assert abs(pre.frame[0].ambient[0]) == F(5, 2)


def test_preprocess_degenerate_lattice(skew2_basis):
    pre = preprocess(skew2_basis)
    assert len(pre.cell.vectors) == 4
    assert rank([v.ambient for v in pre.frame]) == 2
    assert pre.frame_sum_sq == 4  # two frame vectors of squared length 2


def test_round_to_start_examples(z2_pre):
    x = round_to_start(z2_pre, Target.of([F(3, 10), F(7, 10)]))
    assert x.coeffs == (0, 1)
    # integer targets round to themselves
    t = Target.of([4, -2])
    assert round_to_start(z2_pre, t).ambient == t.coords


def test_round_to_start_within_cell_norm_n(rand_lattices):
    rng = make_rng(61)
    for basis, cell in rand_lattices:
        pre = preprocess(basis, cell=cell)
        for _ in range(6):
            t = random_rational_target(basis, rng)
            x = round_to_start(pre, t)
            assert voronoi_norm(cell, sub(t.coords, x.ambient)) <= basis.n


def test_round_half_to_even(z2_pre):
    # frame for Z^2 is (e2, e1); exact-half coordinates round to even
    assert round(F(1, 2)) == 0 and round(F(3, 2)) == 2
    x = round_to_start(z2_pre, Target.of([F(1, 2), F(3, 2)]))
    assert x.coeffs == (0, 2)


def test_query_params_formula(skew2_basis):
    pre = preprocess(skew2_basis)
    t = Target.of([F(1, 4), F(0)])
    params = make_query_params(pre, t)
    # qbar = 4, mu_upper^2 = frame_sum_sq / 4 = 1: alpha = 1/(4*4*1)^2 ... = 1/256
    assert qbar(skew2_basis, t) == 4
    assert params.alpha == F(1, 256)
    n = 2
    bits = pre.bits_basis + t.encoding_length
    assert params.max_edges == 8 * n * (n + bits)
    assert 0 < params.alpha <= 1


def test_certify_against_oracle(rand_lattices):
    rng = make_rng(62)
    for basis, cell in rand_lattices[:3]:
        pre = preprocess(basis, cell=cell)
        t = random_rational_target(basis, rng)
        sols = cvp_bruteforce(basis, t)
        for y in sols.points:
            assert certify(pre, t, y)
        # a relevant-vector step away from a unique optimum is never closest
        if len(sols.points) == 1:
            y = sols.points[0]
            off = LatticePoint.from_coeffs(
                basis,
                [a + b for a, b in zip(y.coeffs, cell.vectors[0].coeffs)],
            )
            if norm_sq(sub(t.coords, off.ambient)) > sols.dist_sq:
                assert not certify(pre, t, off)


def test_certify_deep_hole(z2_pre):
    t = Target.of([F(1, 2), F(1, 2)])
    for coeffs in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        assert certify(z2_pre, t, LatticePoint.from_coeffs(z2_pre.basis, coeffs))


def test_query_matches_oracle_small_corpus(rand_lattices):
    rng = make_rng(63)
    cfg = SamplerConfig(seed=404)
    for basis, cell in rand_lattices[:3]:
        pre = preprocess(basis, cell=cell)
        for i in range(6):
            t = random_rational_target(basis, rng)
            res = query(pre, t, cfg, stream=stream_for(cfg, i))
            assert res.certified
            d = norm_sq(sub(t.coords, res.point.ambient))
            assert d == cvp_bruteforce(basis, t).dist_sq
            assert res.phase_b + res.phase_c <= res.edges_total


def test_query_certified_at_dimension_seven(high_dim_cells):
    cell = high_dim_cells[7]
    pre = preprocess(cell.basis, cell=cell)
    t = random_rational_target(cell.basis, make_rng(64))
    res = query(pre, t, SamplerConfig(seed=405))
    assert res.certified and certify(pre, t, res.point)
    assert norm_sq(sub(t.coords, res.point.ambient)) == cvp_bruteforce(cell.basis, t).dist_sq


def test_query_deterministic_given_seed(z2_pre):
    cfg = SamplerConfig(seed=7)
    t = Target.of([F(13, 10), F(-7, 5)])
    r1 = query(z2_pre, t, cfg)
    r2 = query(z2_pre, t, cfg)
    assert r1.point.coeffs == r2.point.coeffs
    assert (r1.phase_b, r1.phase_c, r1.restarts) == (r2.phase_b, r2.phase_c, r2.restarts)


def test_query_restart_cap(rand_lattices):
    # zero edge budget + a target outside the rounded start's cell: every
    # attempt truncates, so the restart cap must trip
    from voronoi_cvp import membership

    rng = make_rng(65)
    basis, cell = rand_lattices[3]
    pre = preprocess(basis, cell=cell)
    cfg = SamplerConfig(seed=8)
    t = None
    for _ in range(200):
        cand = random_rational_target(basis, rng)
        x = round_to_start(pre, cand)
        if not membership(cell, sub(cand.coords, x.ambient)):
            t = cand
            break
    assert t is not None
    params = QueryParams(alpha=F(1, 64), max_edges=0, restart_cap=3)
    with pytest.raises(RestartLimitExceeded):
        query(pre, t, cfg, params=params)


def test_out_of_attempts_is_typed(z2_cell, tmp_path, capsys, monkeypatch):
    # every walk ties, so the attempt loop runs dry: the crossing trials and
    # the CLI both report it as RestartLimitExceeded (exit 4), not a crash
    def always_tie(*args, **kwargs):
        raise TieDetected([], F(0), 0)

    monkeypatch.setattr(solver, "randomized_straight_line", always_tie)
    t = Target.of([F(5, 2), F(1, 3)])
    with pytest.raises(RestartLimitExceeded):
        run_crossing_trials(z2_cell, LatticePoint.origin(2), t, F(1, 32), 2, SamplerConfig(seed=1))
    path = tmp_path / "z2.json"
    assert main(["gen", "--kind", "integer-identity", "-n", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    code = main(["crossings", str(path), "--trials", "2", "--target", "5/2,1/3"])
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("internal error:") and "Traceback" not in err


def test_seeded_stream_layout(rand_lattices):
    # literal values pin the spawn keys: (trial, resample) for crossing
    # trials and (attempt,) for queries
    _, cell = rand_lattices[1]
    t = Target.of([1, F(-26, 53), F(247, 59)])
    outs = run_crossing_trials(cell, LatticePoint.origin(3), t, F(1, 1024), 5, SamplerConfig(seed=5))
    assert [(o.phase_b, o.phase_c, o.resamples) for o in outs] == [
        (3, 1, 0), (2, 0, 0), (2, 0, 0), (1, 0, 0), (2, 2, 0)
    ]
    basis, cell = rand_lattices[3]
    pre = preprocess(basis, cell=cell)
    t = Target.of([F(-277, 28), F(64, 11), F(-136, 35), F(-135, 23)])
    cfg = SamplerConfig(seed=6)
    res = query(pre, t, cfg)
    assert (res.point.coeffs, res.restarts, res.edges_total) == ((3, -8, -4, -2), 0, 3)
    # a one-edge budget truncates the first five attempts
    params = QueryParams(alpha=make_query_params(pre, t).alpha, max_edges=1)
    res = query(pre, t, cfg, params=params)
    assert (res.point.coeffs, res.restarts, res.edges_total) == ((3, -8, -4, -2), 5, 6)


def test_rational_separation_small(rand_lattices):
    # non-closest points are separated: ||t - y||_V >= 1 + 1/(2 qbar mu_upper)^2
    rng = make_rng(64)
    for basis, cell in rand_lattices[:2]:
        pre = preprocess(basis, cell=cell)
        checked = 0
        for _ in range(12):
            t = random_rational_target(basis, rng)
            sols = cvp_bruteforce(basis, t)
            if len(sols.points) != 1:
                continue
            y = sols.points[0]
            off = LatticePoint.from_coeffs(
                basis,
                [a + b for a, b in zip(y.coeffs, cell.vectors[1].coeffs)],
            )
            if norm_sq(sub(t.coords, off.ambient)) == sols.dist_sq:
                continue
            qb = qbar(basis, t)
            gap = 1 + F(1) / (qb * qb * pre.frame_sum_sq)
            assert voronoi_norm(cell, sub(t.coords, off.ambient)) >= gap
            checked += 1
        assert checked >= 5
