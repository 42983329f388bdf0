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
the basis, and no float enters the sampler.  A sample is a `CellSample`:
integers over one denominator and their products with every relevant
vector, from the slicer's final scan (the one that proves the sample lies
in the cell).  The randomized walk reads Z from them and never scans it.

Randomness comes from numpy's PCG64; independent streams are derived from
one 64-bit seed via SeedSequence spawn keys, so experiments are reproducible
and trials can fan out without sharing generator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg, navigation  # navigation imports CellSample: look the slicer up on call
from .errors import ContractViolation
from .lattice import LatticePoint
from .linalg import Vec
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
    """A named PCG64 stream; children are addressed by integer spawn paths.

    The bit generator is built on the first draw; `gen` wraps that same one.
    """

    def __init__(self, seed_seq: np.random.SeedSequence):
        self.seed_seq = seed_seq

    @cached_property
    def _bits(self) -> np.random.PCG64:
        return np.random.PCG64(self.seed_seq)

    @cached_property
    def gen(self) -> np.random.Generator:
        return np.random.Generator(self._bits)

    def child(self, *path: int) -> "SampleStream":
        return SampleStream(
            np.random.SeedSequence(
                self.seed_seq.entropy, spawn_key=tuple(self.seed_seq.spawn_key) + tuple(path)
            )
        )

    def getrandbits(self, k: int) -> int:
        # raw PCG64 words: the same words as gen.integers(0, 2**64, dtype=np.uint64)
        val = 0
        for w in self._bits.random_raw((k + 63) // 64).tolist():
            val = (val << 64) | w
        return val & ((1 << k) - 1)


def stream_for(cfg: SamplerConfig, *path: int) -> SampleStream:
    """The stream at spawn path `path` under the configured seed."""
    return SampleStream(np.random.SeedSequence(cfg.seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class CellSample:
    """A point Z of `cell` as integers `ints` over one denominator `den` (the compared fields).

    `dots[i]` = <V_i, ints> for the image V_i = den_B v_i of each relevant
    vector, in cell order (den_B the basis's denominator).  Z lies in the
    cell exactly when 2 den_B dots[i] <= den <V_i, V_i> on every row; build
    a sample with `uniform_sample` or `CellSample.of`, which establish that.
    """

    ints: tuple[int, ...]
    den: int
    dots: np.ndarray = field(repr=False, compare=False)
    cell: VoronoiCellData = field(repr=False, compare=False)

    @classmethod
    def of(cls, cell: VoronoiCellData, coords: Sequence) -> "CellSample":
        """The sample at `coords`, converted once; `ContractViolation` unless it lies in the cell."""
        if len(coords) != cell.n:
            raise ValueError(f"expected a sample of length {cell.n}, got {len(coords)}")
        ints, den = linalg.scaled_ints(linalg.vec(coords))
        dots = cell.scan(ints, 1, 0)
        if dots is None:  # Python integers
            dots = np.array([linalg.dot_int(v, ints) for v in cell._vr_int], dtype=object)
        den2 = 2 * cell.basis.den
        if any(den2 * p > den * nv for p, nv in zip(dots.tolist(), cell._norm_int)):
            raise ContractViolation("perturbation sample is not in the cell")
        return cls(ints, den, dots, cell)

    @property
    def coords(self) -> Vec:
        return tuple(Fraction(x, self.den) for x in self.ints)


def uniform_sample(
    cell: VoronoiCellData, cfg: SamplerConfig, stream: Optional[SampleStream] = None
) -> CellSample:
    """Uniform cell sample (up to the dyadic grid) by torus reduction.

    Draws x = B a with dyadic coefficients a_j in [-1/2, 1/2) and returns
    x - y, where y is the iterative slicer's closest vector to x, with the
    products of the slicer's final scan.
    """
    stream = stream or stream_for(cfg)
    bits = cfg.precision_bits
    half = 1 << (bits - 1)
    k = [stream.getrandbits(bits) - half for _ in range(cell.n)]
    dx = cell.basis.den << bits
    x_int = LatticePoint.from_coeffs(cell.basis, k).image  # x = x_int / dx
    # lcm(den, dx) = dx: the slicer's residual x - y is over dx too
    y, _, dots = navigation.slicer_products(cell, x_int, dx, LatticePoint.origin(cell.n))
    return CellSample(tuple(xi - (yi << bits) for xi, yi in zip(x_int, y.image)), dx, dots, cell)
