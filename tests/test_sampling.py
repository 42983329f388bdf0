import math
from fractions import Fraction

import numpy as np

import pytest
from scipy import stats as scipy_stats

from voronoi_cvp import (
    ContractViolation,
    SamplerConfig,
    SizeCapError,
    VoronoiCellData,
    compute_relevant_vectors,
    membership,
    uniform_sample,
    voronoi_norm,
)
from voronoi_cvp.sampling import CellSample, stream_for
from voronoi_cvp.linalg import dot_int, vec

from conftest import (
    gamma_factor_for_dimension,
    gamma_sample,
    scaled_basis,
    theta_for_dimension,
    uniform_voronoi_rejection,
)

F = Fraction


def mean_se(values):
    n = len(values)
    m = sum(values) / n
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n)


def test_config_validation():
    with pytest.raises(ContractViolation):
        SamplerConfig(precision_bits=8)


def test_rejection_membership_and_symmetry(z2_cell):
    cfg = SamplerConfig(seed=11)
    stream = stream_for(cfg, 0)
    pts = [uniform_voronoi_rejection(z2_cell, cfg, stream) for _ in range(500)]
    assert all(membership(z2_cell, p) for p in pts)
    for i in range(2):
        m, se = mean_se([float(p[i]) for p in pts])
        assert abs(m) <= 4 * se + 1e-9


def test_rejection_mean_cell_norm(z3_cell):
    # uniform on the cell: Pr[||Z||_V <= s] = s^n, so E ||Z||_V = n/(n+1)
    cfg = SamplerConfig(seed=12)
    stream = stream_for(cfg, 0)
    norms = [
        float(voronoi_norm(z3_cell, uniform_voronoi_rejection(z3_cell, cfg, stream)))
        for _ in range(600)
    ]
    m, se = mean_se(norms)
    assert abs(m - 3 / 4) <= 4 * se


def test_rejection_attempt_cap(z2_cell):
    cfg = SamplerConfig(seed=13)
    with pytest.raises(SizeCapError):
        # a single proposal in the bounding box almost surely misses the cell
        for i in range(64):
            uniform_voronoi_rejection(z2_cell, cfg, stream_for(cfg, i), attempt_cap=1)


def test_sampler_determinism(z2_cell, rand_lattices):
    cfg = SamplerConfig(seed=99)
    for sampler, cell in (
        (uniform_voronoi_rejection, z2_cell),
        (uniform_sample, rand_lattices[3][1]),
    ):
        a = sampler(cell, cfg, stream_for(cfg, 5))
        b = sampler(cell, cfg, stream_for(cfg, 5))
        c = sampler(cell, cfg, stream_for(cfg, 6))
        assert a == b
        assert a != c


def test_torus_matches_rejection(skew2_cell, rand_lattices):
    # two-sample KS of torus reduction against exact rejection, n <= 4:
    # per coordinate and on the cell norm
    cfg = SamplerConfig(seed=21)
    cells = [skew2_cell] + [cell for _, cell in rand_lattices]
    for ci, cell in enumerate(cells):
        torus_stream = stream_for(cfg, ci, 0)
        torus = [uniform_sample(cell, cfg, torus_stream).coords for _ in range(400)]
        assert all(membership(cell, p) for p in torus)
        rej_stream = stream_for(cfg, ci, 1)
        rej = [uniform_voronoi_rejection(cell, cfg, rej_stream) for _ in range(400)]
        for i in range(cell.n):
            res = scipy_stats.ks_2samp([float(p[i]) for p in torus], [float(p[i]) for p in rej])
            assert res.pvalue > 1e-3, (ci, i)
        res = scipy_stats.ks_2samp(
            [float(voronoi_norm(cell, p)) for p in torus],
            [float(voronoi_norm(cell, p)) for p in rej],
        )
        assert res.pvalue > 1e-3, (ci, "norm")


def test_torus_mean_cell_norm_high_dimension(high_dim_cells):
    # uniform on the cell: E ||Z||_V = n/(n+1), also where rejection is infeasible
    cfg = SamplerConfig(seed=22)
    for n, cell in high_dim_cells.items():
        stream = stream_for(cfg, n)
        samples = [uniform_sample(cell, cfg, stream).coords for _ in range(300)]
        assert all(membership(cell, p) for p in samples)
        m, se = mean_se([float(voronoi_norm(cell, p)) for p in samples])
        assert abs(m - n / (n + 1)) <= 4 * se, (n, m, se)


def test_gamma_moments():
    cfg = SamplerConfig(seed=41)
    stream = stream_for(cfg, 0)
    k, theta = 5, theta_for_dimension(4)
    n_draws = 100_000
    draws = [gamma_sample(k, theta, stream) for _ in range(n_draws)]
    m, se = mean_se(draws)
    assert abs(m - k * theta) <= 4 * se
    var = sum((d - m) ** 2 for d in draws) / (n_draws - 1)
    m4 = sum((d - m) ** 4 for d in draws) / n_draws
    se_var = math.sqrt((m4 - var**2) / n_draws)
    assert abs(var - k * theta**2) <= 4 * se_var


def test_gamma_concentration_interval():
    # Gamma(n+1, theta_n) lands in [1, 1 + 2*sqrt(2)/(sqrt(n+1)-sqrt(2))] with
    # probability at least 1/2 (Chebyshev makes the true mass comfortably higher)
    n = 4
    cfg = SamplerConfig(seed=42)
    stream = stream_for(cfg, 0)
    theta = theta_for_dimension(n)
    hi = 1.0 / gamma_factor_for_dimension(n)
    n_draws = 20_000
    hits = sum(
        1 for _ in range(n_draws) if 1.0 <= gamma_sample(n + 1, theta, stream) <= hi
    )
    p_hat = hits / n_draws
    se = math.sqrt(p_hat * (1 - p_hat) / n_draws)
    assert p_hat >= 0.5 - 3 * se


def test_gamma_validation():
    cfg = SamplerConfig(seed=1)
    stream = stream_for(cfg, 0)
    with pytest.raises(ContractViolation):
        gamma_sample(0, 1.0, stream)
    with pytest.raises(ContractViolation):
        gamma_sample(3, 0.0, stream)


def test_scale_constants():
    for n in (2, 3, 4, 8, 16):
        theta = theta_for_dimension(n)
        gam = gamma_factor_for_dimension(n)
        assert theta > 0
        assert 0 < gam < 1
        assert math.isclose(theta * ((n + 1) - math.sqrt(2 * (n + 1))), 1.0)
        assert math.isclose(
            1.0 / gam, 1.0 + 2.0 * math.sqrt(2) / (math.sqrt(n + 1) - math.sqrt(2))
        )
    with pytest.raises(ContractViolation):
        theta_for_dimension(1)


def test_uniform_to_laplace_coupling_inclusion(z2_cell):
    # with shared (r, U): [U+t, alpha U+t] inside [rU+t, g*alpha*r U+t]
    # whenever r in [1, 1/g]; checked componentwise with exact endpoints
    n = 2
    cfg = SamplerConfig(seed=54)
    stream = stream_for(cfg, 0)
    theta = theta_for_dimension(n)
    g = Fraction(gamma_factor_for_dimension(n))
    alpha = F(1, 32)
    t = vec([F(3, 7), F(-2, 5)])
    checked = 0
    for _ in range(300):
        r = Fraction(gamma_sample(n + 1, theta, stream))
        if not (1 <= r <= 1 / g):
            continue
        u = uniform_voronoi_rejection(z2_cell, cfg, stream)
        for ti, ui in zip(t, u):
            inner = sorted((ti + ui, ti + alpha * ui))
            outer = sorted((ti + r * ui, ti + g * alpha * r * ui))
            assert outer[0] <= inner[0] and inner[1] <= outer[1]
        checked += 1
    assert checked >= 50  # the radial condition holds at least half the time


def test_stream_builds_its_generator_on_first_draw():
    # the words and draws of a lazily built stream equal those of a generator built with
    # it, on several spawn paths; `gen` and `getrandbits` continue one stream
    cfg = SamplerConfig(seed=17)
    for path in ((), (0,), (3, 1), (7, 2, 5)):
        stream = stream_for(cfg).child(*path)
        assert not {"_bits", "gen"} & set(vars(stream))  # spawning draws nothing
        ref = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=path))
        )
        for k in (1, 64, 65, 128, 200):
            word = 0
            for w in ref.bit_generator.random_raw((k + 63) // 64).tolist():
                word = (word << 64) | w
            assert stream.getrandbits(k) == word & ((1 << k) - 1)
            assert stream.gen.standard_exponential(2).tolist() == ref.standard_exponential(2).tolist()
        assert stream.gen is stream.gen
        assert stream_for(cfg, *path).getrandbits(200) == stream_for(cfg).child(*path).getrandbits(200)


def test_sample_products_match_a_dot_loop(z2_cell, rand_lattices, monkeypatch):
    # the products come from the slicer's final scan: int64 for a 32-bit grid on small
    # lattices, Python integers for 128 bits; each equals a dot_int loop on every row
    scan = VoronoiCellData.scan
    last = []
    monkeypatch.setattr(
        VoronoiCellData, "scan", lambda *a: last.append(scan(*a) is not None) or scan(*a)
    )
    paths = set()
    for ci, cell in enumerate([z2_cell] + [c for _, c in rand_lattices]):
        for bits in (32, 128):
            cfg = SamplerConfig(seed=31, precision_bits=bits)
            for i in range(5):
                last.clear()
                z = uniform_sample(cell, cfg, stream_for(cfg, ci, i))
                paths.add(last[-1])
                assert z.cell is cell and z.den == cell.basis.den << bits
                assert z.dots.tolist() == [dot_int(v, z.ints) for v in cell._vr_int]
                assert membership(cell, z.coords)
                rebuilt = CellSample.of(cell, z.coords)
                assert rebuilt.coords == z.coords
                assert rebuilt.dots.tolist() == [dot_int(v, rebuilt.ints) for v in cell._vr_int]
    assert paths == {True, False}


def test_cell_sample_of_refuses_a_point_outside_the_cell(z2_cell, rand_lattices):
    # a vertex of the cell; the relevant vectors of Z^2 are (0, 1), (0, -1), (1, 0), (-1, 0)
    assert CellSample.of(z2_cell, (F(1, 2), F(-1, 2))).dots.tolist() == [-1, 1, 1, -1]
    for coords in ((F(1, 2) + F(1, 2**140), 0), (F(2), F(0)), (F(3, 4), F(3, 4))):
        with pytest.raises(ContractViolation, match="not in the cell"):
            CellSample.of(z2_cell, coords)
    with pytest.raises(ValueError):
        CellSample.of(z2_cell, (0, 0, 0))
    # past int64: the products are Python integers
    basis, small = rand_lattices[1]
    big = compute_relevant_vectors(scaled_basis(basis, 2**64))
    v = big.vectors[0].ambient
    inside = CellSample.of(big, [c / 2 for c in v])
    assert inside.dots.dtype == object
    assert inside.dots.tolist() == [dot_int(w, inside.ints) for w in big._vr_int]
    with pytest.raises(ContractViolation):
        CellSample.of(big, [c / 2 + F(1, 2**200) * c for c in v])
