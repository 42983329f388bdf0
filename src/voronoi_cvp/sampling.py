"""Random generation: seeded streams and uniform cell samples.

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
no polynomial bound in theory.  The tests keep an exact rejection sampler
as the small-n reference to compare against.

Geometry stays exact: emitted points are dyadic-rational combinations of
the basis, and no float enters the sampler.

Randomness comes from numpy's PCG64; independent streams are derived from
one 64-bit seed via SeedSequence spawn keys, so experiments are reproducible
and trials can fan out without sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .lattice import LatticePoint
from .linalg import Vec
from .navigation import slicer_scaled
from .voronoi import VoronoiCellData


MIN_PRECISION_BITS = 32


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling knobs shared across the package.

    `precision_bits` is the dyadic grid resolution of emitted points.
    """

    seed: int = 0
    precision_bits: int = 128

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ContractViolation(f"precision_bits must be at least {MIN_PRECISION_BITS}")


class SampleStream:
    """A named PCG64 stream; children are addressed by integer spawn paths."""

    def __init__(self, seed_seq: np.random.SeedSequence):
        self.seed_seq = seed_seq
        self.gen = np.random.Generator(np.random.PCG64(seed_seq))

    def child(self, *path: int) -> "SampleStream":
        return SampleStream(
            np.random.SeedSequence(
                self.seed_seq.entropy, spawn_key=tuple(self.seed_seq.spawn_key) + tuple(path)
            )
        )

    def getrandbits(self, k: int) -> int:
        # raw PCG64 words: the same words as gen.integers(0, 2**64, dtype=np.uint64)
        val = 0
        for w in self.gen.bit_generator.random_raw((k + 63) // 64).tolist():
            val = (val << 64) | w
        return val & ((1 << k) - 1)


def stream_for(cfg: SamplerConfig, *path: int) -> SampleStream:
    """The stream at spawn path `path` under the configured seed."""
    return SampleStream(np.random.SeedSequence(cfg.seed, spawn_key=tuple(path)))


def uniform_sample(
    cell: VoronoiCellData, cfg: SamplerConfig, stream: Optional[SampleStream] = None
) -> Vec:
    """Uniform cell sample (up to the dyadic grid) by torus reduction.

    Draws x = B a with dyadic coefficients a_j in [-1/2, 1/2) and returns
    x - y, where y is the iterative slicer's closest vector to x.
    """
    stream = stream or stream_for(cfg)
    bits = cfg.precision_bits
    half = 1 << (bits - 1)
    k = [stream.getrandbits(bits) - half for _ in range(cell.n)]
    dx = cell.basis.den << bits
    x_int = LatticePoint.from_coeffs(cell.basis, k).image  # x = x_int / dx
    y, _ = slicer_scaled(cell, x_int, dx, LatticePoint.origin(cell.n))
    return tuple(Fraction(xi - (yi << bits), dx) for xi, yi in zip(x_int, y.image))
