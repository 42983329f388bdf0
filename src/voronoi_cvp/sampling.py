"""Random generation: uniform cell samples, Gamma and cell-Laplace draws.

Uniform cell samples come from torus reduction.  A point x = B a with
dyadic coefficients a_j = (k_j - 2^(b-1)) / 2^b, b = `precision_bits`, is
uniform over the classes of the grid 2^-b L modulo L (the k_j run over all
residues mod 2^b, so every class is hit once).  The iterative slicer then
maps x to x - y with y a closest lattice vector, the representative of the
class in the closed cell.  So the draw is uniform over the grid points of
the cell, the same exactness an exact rejection sampler has, and it lies in
the cell by the slicer's stopping rule.  The centred box keeps the slicer's
start within Babai distance of the answer.

Caveat: the paper's polynomial-time bound rests on a random-walk sampler.
Torus reduction costs one slicer descent, which is fast in practice but has
no polynomial bound in theory.  The rejection sampler stays as the small-n
reference the tests compare against.

Geometry stays exact: emitted points are dyadic-rational combinations of
the basis.  Floating point is confined to the scalar distributions (Gamma
radial factors).

Randomness comes from numpy's PCG64; independent streams are derived from
one 64-bit seed via SeedSequence spawn keys, so experiments are reproducible
and trials can fan out without sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Optional

import numpy as np

from . import linalg
from .errors import ContractViolation, SizeCapError
from .lattice import LatticePoint, Target
from .linalg import Vec
from .navigation import iterative_slicer
from .voronoi import VoronoiCellData


MIN_PRECISION_BITS = 32


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling knobs shared across the package.

    `precision_bits` is the dyadic grid resolution of emitted points;
    `rejection_attempt_cap` bounds the reference rejection sampler.
    """

    seed: int = 0
    precision_bits: int = 128
    rejection_attempt_cap: int = 200_000

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ContractViolation(f"precision_bits must be at least {MIN_PRECISION_BITS}")


class SampleStream:
    """A named PCG64 stream; children are addressed by integer spawn paths."""

    def __init__(self, seed_seq: np.random.SeedSequence):
        self.seed_seq = seed_seq
        self.gen = np.random.Generator(np.random.PCG64(seed_seq))

    @classmethod
    def from_config(cls, cfg: SamplerConfig, *path: int) -> "SampleStream":
        return cls(np.random.SeedSequence(cfg.seed, spawn_key=tuple(path)))

    def child(self, *path: int) -> "SampleStream":
        return SampleStream(
            np.random.SeedSequence(
                self.seed_seq.entropy, spawn_key=tuple(self.seed_seq.spawn_key) + tuple(path)
            )
        )

    def getrandbits(self, k: int) -> int:
        words = (k + 63) // 64
        val = 0
        for w in self.gen.integers(0, 2**64, size=words, dtype=np.uint64):
            val = (val << 64) | int(w)
        return val & ((1 << k) - 1)

    def exponential_sum(self, k: int) -> float:
        return float(self.gen.standard_exponential(k).sum())


def stream_for(cfg: SamplerConfig, *path: int) -> SampleStream:
    return SampleStream.from_config(cfg, *path)


def uniform_voronoi_rejection(
    cell: VoronoiCellData, cfg: SamplerConfig, stream: Optional[SampleStream] = None
) -> Vec:
    """Exactly uniform cell sample (up to the dyadic grid) by rejection.

    Proposals are uniform over the bounding box [-R, R]^n from the outer
    sandwich radius; each proposal is membership-tested exactly.  Feasible
    only while the cell volume is a workable fraction of the box volume, so
    it serves as the small-n reference for `uniform_sample`.
    """
    stream = stream or SampleStream.from_config(cfg)
    n = cell.n
    r_up = linalg.sqrt_upper(cell.outer_radius_sq)
    m = 1 << cfg.precision_bits
    dx = r_up.denominator * m
    p = r_up.numerator
    for _ in range(cfg.rejection_attempt_cap):
        x_int = tuple(
            p * (2 * stream.getrandbits(cfg.precision_bits) - m + 1) for _ in range(n)
        )
        if cell.membership_scaled(x_int, dx):
            return tuple(Fraction(xi, dx) for xi in x_int)
    raise SizeCapError(
        "rejection sampler exceeded its attempt cap; use uniform_sample (torus reduction)"
    )


def uniform_sample(
    cell: VoronoiCellData, cfg: SamplerConfig, stream: Optional[SampleStream] = None
) -> Vec:
    """Uniform cell sample (up to the dyadic grid) by torus reduction.

    Draws x = B a with dyadic coefficients a_j in [-1/2, 1/2) and returns
    x - y, where y is the iterative slicer's closest vector to x.
    """
    stream = stream or SampleStream.from_config(cfg)
    bits = cfg.precision_bits
    half = 1 << (bits - 1)
    k = [stream.getrandbits(bits) - half for _ in range(cell.n)]
    dx = cell._den << bits
    x = tuple(Fraction(linalg.dot_int(row, k), dx) for row in cell._basis_rows_int)
    y, _ = iterative_slicer(cell, Target(x), LatticePoint.origin(cell.n))
    return linalg.sub(x, y.ambient)


# ---------------------------------------------------------------------------
# scalar distributions


def gamma_sample(k: int, theta: float, stream: SampleStream) -> float:
    """Gamma(k, theta) draw for integer shape: sum of k exponential(theta)."""
    if k < 1 or int(k) != k:
        raise ContractViolation("gamma shape must be a positive integer")
    if theta <= 0:
        raise ContractViolation("gamma scale must be positive")
    return theta * stream.exponential_sum(int(k))


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


@dataclass(frozen=True)
class LaplaceParams:
    """Scale of the cell-norm exponential distribution (density ~ e^{-||x||_V / theta})."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ContractViolation("theta must be positive")

    @classmethod
    def for_dimension(cls, n: int) -> "LaplaceParams":
        return cls(theta=theta_for_dimension(n))


@dataclass(frozen=True)
class LaplaceSample:
    """A draw decomposed as radial * cell_sample, certifying its support."""

    point: Vec
    radial: float
    cell_sample: Vec


def laplace_voronoi_sample(
    cell: VoronoiCellData,
    params: LaplaceParams,
    cfg: SamplerConfig,
    stream: Optional[SampleStream] = None,
) -> LaplaceSample:
    """Sample r * U with r ~ Gamma(n+1, theta) and U uniform on the cell.

    That product has density proportional to e^{-||x||_V / theta}; the mean
    cell norm of the output is n * theta.
    """
    stream = stream or SampleStream.from_config(cfg)
    r = gamma_sample(cell.n + 1, params.theta, stream)
    u = uniform_sample(cell, cfg, stream)
    rf = Fraction(r)
    return LaplaceSample(
        point=tuple(rf * ui for ui in u), radial=r, cell_sample=u
    )
