"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Corpora are seeded and shared across criteria through session
fixtures; every tolerance is pinned here.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest

from voronoi_cvp import (
    LatticeBasis,
    LatticePoint,
    SamplerConfig,
    Target,
    TieDetected,
    TRUNCATED,
    compute_relevant_vectors,
    count_crossings,
    cvp_bruteforce,
    enumerate_ball,
    graph_distance_bfs,
    line_follow,
    membership,
    preprocess,
    query,
    randomized_straight_line,
    round_to_start,
    voronoi_norm,
)
from voronoi_cvp.experiments import (
    PHASE_C_CONSTANT,
    phase_b_bound,
    phase_c_bound,
    run_crossing_trials,
    summarize_crossings,
)
from voronoi_cvp.lattice import (
    qbar,
    random_rational_basis,
    random_rational_target,
)
from voronoi_cvp.linalg import norm_sq, sub, vec
from voronoi_cvp.sampling import (
    SampleStream,
    gamma_factor_for_dimension,
    gamma_sample,
    stream_for,
    theta_for_dimension,
    uniform_sample,
    uniform_voronoi_rejection,
)

from conftest import make_rng

F = Fraction


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException as e:
        print(f"criterion {num} [{name}]: FAIL ({e})")
        raise
    print(f"criterion {num} [{name}]: PASS")


def mean_se(values):
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# corpora


@pytest.fixture(scope="session")
def random_corpus():
    """25 random rational lattices, n = 2..5, with their cells."""
    rng = make_rng(900_001)
    plan = [(2, 7), (3, 6), (4, 6), (5, 6)]
    corpus = []
    for n, count in plan:
        for _ in range(count):
            basis = random_rational_basis(n, rng)
            corpus.append((basis, compute_relevant_vectors(basis)))
    return corpus


@pytest.fixture(scope="session")
def solver_runs(random_corpus):
    """500 certified queries with oracle labels (criteria 2 and 9)."""
    rng = make_rng(900_002)
    picks = [e for e in random_corpus if e[0].n in (2, 3, 4, 5)][:20]
    runs = []
    for li, (basis, cell) in enumerate(picks):
        pre = preprocess(basis, cell=cell)
        cfg = SamplerConfig(seed=500_000 + li)
        for qi in range(25):
            t = random_rational_target(basis, rng, max_denominator=64)
            res = query(pre, t, cfg, stream=stream_for(cfg, qi))
            oracle = cvp_bruteforce(basis, t)
            runs.append(
                {
                    "pre": pre,
                    "t": t,
                    "result": res,
                    "oracle_dist_sq": oracle.dist_sq,
                    "dist_sq": norm_sq(sub(t.coords, res.point.ambient)),
                }
            )
    return runs


@pytest.fixture(scope="session")
def dim4_instances(random_corpus):
    """The identity lattice plus two random 4D lattices (criteria 3 and 4)."""
    z4 = LatticeBasis.identity(4)
    cells = [(z4, compute_relevant_vectors(z4))]
    cells += [e for e in random_corpus if e[0].n == 4][:2]
    return cells


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_relevant_vector_correctness(random_corpus):
    with criterion(1, "relevant-vector correctness"):
        for n in range(2, 7):
            cell = compute_relevant_vectors(LatticeBasis.identity(n))
            got = {v.ambient for v in cell.vectors}
            expected = set()
            for i in range(n):
                e = [F(0)] * n
                e[i] = F(1)
                expected.add(tuple(e))
                expected.add(tuple(-x for x in e))
            assert got == expected, f"Z^{n} relevant vectors wrong"
        assert len(random_corpus) == 25
        for basis, cell in random_corpus:
            n = basis.n
            assert len(cell.vectors) <= 2 * (2**n - 1)
            doubled = basis.scaled(2)
            zero = tuple(0 for _ in range(n))
            for v in cell.vectors:
                # independent enumeration: the coset v + 2L has no element of
                # norm <= ||v|| besides +-v (strict minimality up to sign)
                hits = enumerate_ball(
                    doubled, tuple(-x for x in v.ambient), v.norm_sq
                )
                got = {p.coeffs for p in hits}
                assert got == {zero, tuple(-c for c in v.coeffs)}


def test_criterion_2_solver_exactness(solver_runs):
    with criterion(2, "solver exactness, Las Vegas"):
        assert len(solver_runs) == 500
        for run in solver_runs:
            assert run["result"].certified
            assert run["dist_sq"] == run["oracle_dist_sq"]  # zero tolerance
        # edge budgets held, and the mean edge count sits under the
        # n^2/2 + c n (2 + 2 ln(8 qbar mu_upper)) expectation bound
        edges, bounds = [], []
        for run in solver_runs:
            pre, t, res = run["pre"], run["t"], run["result"]
            from voronoi_cvp.solver import make_query_params

            params = make_query_params(pre, t)
            assert res.phase_b + res.phase_c <= params.max_edges
            n = pre.basis.n
            qb = qbar(pre.basis, t)
            mu_up = math.sqrt(float(pre.frame_sum_sq)) / 2
            bounds.append(
                n * n / 2 + PHASE_C_CONSTANT * n * (2 + 2 * math.log(8 * qb * mu_up))
            )
            edges.append(res.phase_b + res.phase_c)
        assert sum(edges) / len(edges) <= sum(bounds) / len(bounds)


def test_criterion_3_phase_b_bound(dim4_instances):
    with criterion(3, "shifted-segment crossing bound"):
        rng = make_rng(900_003)
        for idx, (basis, cell) in enumerate(dim4_instances):
            n = basis.n
            x = LatticePoint.origin(n)
            if idx == 0:
                t = Target.of([1, 1, 1, 1])  # lattice target on Z^4
            else:
                while True:
                    t = random_rational_target(basis, rng, max_denominator=8)
                    if voronoi_norm(cell, t.coords) > 1:
                        break
            cfg = SamplerConfig(seed=300_000 + idx)
            outcomes = run_crossing_trials(cell, x, t, F(1, 32), 1000, cfg)
            s = summarize_crossings(
                outcomes, phase_b_bound(cell, x, t), phase_c_bound(n, F(1, 32))
            )
            assert s.mean_b <= float(s.bound_b) + 3 * s.se_b, (
                f"instance {idx}: mean {s.mean_b} vs bound {float(s.bound_b)}"
            )
            if idx == 0:
                # lattice target: the descent phase crosses nothing
                assert all(o.phase_c == 0 for o in outcomes)


def test_criterion_4_phase_c_bound(dim4_instances):
    with criterion(4, "descent crossing bound"):
        rng = make_rng(900_004)
        for idx, (basis, cell) in enumerate(dim4_instances):
            n = basis.n
            x = LatticePoint.origin(n)
            while True:
                t = random_rational_target(basis, rng, max_denominator=8)
                if voronoi_norm(cell, t.coords) > 1:
                    break
            for ai, alpha in enumerate((F(1, 32), F(1, 1024))):
                cfg = SamplerConfig(seed=400_000 + 10 * idx + ai)
                outcomes = run_crossing_trials(cell, x, t, alpha, 1000, cfg)
                s = summarize_crossings(
                    outcomes, phase_b_bound(cell, x, t), phase_c_bound(n, alpha)
                )
                assert s.mean_c <= s.bound_c + 3 * s.se_c, (
                    f"instance {idx} alpha {alpha}: mean {s.mean_c} vs {s.bound_c}"
                )


def test_criterion_5_graph_distance_sandwich():
    with criterion(5, "graph-distance sandwich and tightness"):
        rng = make_rng(900_005)
        from itertools import product

        for _ in range(10):
            basis = random_rational_basis(3, rng)
            cell = compute_relevant_vectors(basis)
            origin = LatticePoint.origin(3)
            for coeffs in product((-1, 0, 1), repeat=3):
                if not any(coeffs):
                    continue
                y = LatticePoint.from_coeffs(basis, coeffs)
                d = graph_distance_bfs(cell, origin, y, cap=12)
                assert d is not None
                vnorm = voronoi_norm(cell, y.ambient)
                assert 2 * d >= vnorm and 2 * d <= 3 * vnorm  # zero tolerance
        for n in range(2, 7):
            cell = compute_relevant_vectors(LatticeBasis.identity(n))
            ones = LatticePoint.from_coeffs(cell.basis, (1,) * n)
            assert graph_distance_bfs(cell, LatticePoint.origin(n), ones, cap=n + 2) == n
            assert voronoi_norm(cell, ones.ambient) == 2


def test_criterion_6_line_following_contract(z2_cell, z3_cell, skew2_cell, rand_lattices):
    with criterion(6, "line-following contract"):
        cells = [z2_cell, z3_cell, skew2_cell, rand_lattices[1][1], rand_lattices[3][1]]
        cfg = SamplerConfig(seed=600_000)
        rng = make_rng(900_006)
        total = 10_000
        per_cell = total // len(cells)
        ties = 0
        for ci, cell in enumerate(cells):
            n = cell.n
            basis = cell.basis
            vr_coeffs = {v.coeffs for v in cell.vectors}
            done = 0
            attempt = 0
            while done < per_cell:
                attempt += 1
                z = LatticePoint.from_coeffs(
                    basis, [int(rng.integers(-2, 3)) for _ in range(n)]
                )
                u = uniform_sample(cell, cfg, stream_for(cfg, ci, attempt))
                a = tuple(zi + ui for zi, ui in zip(z.ambient, u))
                b = tuple(
                    ai + F(int(rng.integers(-16, 17)), 8) for ai in a
                )
                try:
                    w, tr = line_follow(cell, a, b, z)
                except TieDetected:
                    ties += 1
                    continue
                # postcondition, exact: b lies in the cell of w
                assert membership(cell, sub(b, w.ambient))
                alphas = [e.alpha for e in tr.events]
                assert all(x < y for x, y in zip(alphas, alphas[1:]))
                assert all(e.edge.coeffs in vr_coeffs for e in tr.events)
                delta = [0] * n
                for e in tr.events:
                    delta = [d + c for d, c in zip(delta, e.edge.coeffs)]
                assert tuple(s + d for s, d in zip(tr.start.coeffs, delta)) == w.coeffs
                done += 1
        assert ties <= 5  # 128-bit dyadic inputs make exact ties vanishing


def test_criterion_7_sampler_statistics(z4_cell):
    with criterion(7, "sampler statistics"):
        n = 4
        theta = theta_for_dimension(n)
        hi = 1.0 / gamma_factor_for_dimension(n)
        cfg = SamplerConfig(seed=700_000)
        stream = stream_for(cfg, 0)
        n_draws = 100_000
        hits = sum(
            1
            for _ in range(n_draws)
            if 1.0 <= gamma_sample(n + 1, theta, stream) <= hi
        )
        p_hat = hits / n_draws
        se_p = math.sqrt(p_hat * (1 - p_hat) / n_draws)
        assert p_hat >= 0.5 - 3 * se_p

        u_stream = stream_for(cfg, 1)
        us = [
            uniform_voronoi_rejection(z4_cell, cfg, u_stream) for _ in range(3000)
        ]
        u_norms = [float(voronoi_norm(z4_cell, u)) for u in us]
        m_u, se_u = mean_se(u_norms)
        assert abs(m_u - n / (n + 1)) <= 4 * se_u

        r_stream = stream_for(cfg, 2)
        x_norms = [
            gamma_sample(n + 1, theta, r_stream) * un for un in u_norms
        ]
        m_x, se_x = mean_se(x_norms)
        assert abs(m_x - n * theta) <= 4 * se_x


def test_criterion_8_rational_separation(solver_runs):
    with criterion(8, "rational separation of non-closest points"):
        rng = make_rng(900_008)
        checked = 0
        for run in solver_runs:
            if checked >= 100:
                break
            pre, t = run["pre"], run["t"]
            cell = pre.cell
            oracle = cvp_bruteforce(pre.basis, t)
            if len(oracle.points) != 1:
                continue
            y = oracle.points[0]
            v = cell.vectors[int(rng.integers(0, len(cell.vectors)))]
            off = LatticePoint.from_coeffs(
                pre.basis, [a + b for a, b in zip(y.coeffs, v.coeffs)]
            )
            if norm_sq(sub(t.coords, off.ambient)) == oracle.dist_sq:
                continue  # not oracle-labeled non-closest; skip
            qb = qbar(pre.basis, t)
            # (2 qbar mu_upper)^2 = qbar^2 * frame_sum_sq exactly
            gap = 1 + F(1) / (qb * qb * pre.frame_sum_sq)
            assert voronoi_norm(cell, sub(t.coords, off.ambient)) >= gap
            checked += 1
        assert checked >= 100


def test_criterion_9_restart_economy(solver_runs):
    with criterion(9, "restart economy"):
        restarts = [run["result"].restarts for run in solver_runs]
        assert sum(restarts) / len(restarts) <= 1.0
