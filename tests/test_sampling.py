import math
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from voronoi_cvp import (
    ContractViolation,
    SamplerConfig,
    SizeCapError,
    membership,
    uniform_sample,
    voronoi_norm,
)
from voronoi_cvp.sampling import stream_for
from voronoi_cvp.linalg import vec

from conftest import (
    gamma_factor_for_dimension,
    gamma_sample,
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
        torus = [uniform_sample(cell, cfg, torus_stream) for _ in range(400)]
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
        samples = [uniform_sample(cell, cfg, stream) for _ in range(300)]
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
