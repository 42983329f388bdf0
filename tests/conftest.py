from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from voronoi_cvp import LatticeBasis, compute_relevant_vectors, preprocess
from voronoi_cvp.lattice import random_rational_basis

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture(scope="session")
def z2_cell():
    return compute_relevant_vectors(LatticeBasis.identity(2))


@pytest.fixture(scope="session")
def z3_cell():
    return compute_relevant_vectors(LatticeBasis.identity(3))


@pytest.fixture(scope="session")
def z4_cell():
    return compute_relevant_vectors(LatticeBasis.identity(4))


@pytest.fixture(scope="session")
def skew2_basis():
    # columns (2,0) and (1,1): the sublattice of Z^2 with even coordinate sum.
    # Degenerate cell (a rotated square): only 4 facets, lambda1^2 = 2.
    return LatticeBasis.from_rows([[2, 1], [0, 1]])


@pytest.fixture(scope="session")
def skew2_cell(skew2_basis):
    return compute_relevant_vectors(skew2_basis)


@pytest.fixture(scope="session")
def rand_lattices():
    """Fixed random rational lattices (seeded) with their cells, n = 2..4."""
    rng = make_rng(20240817)
    out = []
    for n in (2, 3, 3, 4):
        basis = random_rational_basis(n, rng)
        out.append((basis, compute_relevant_vectors(basis)))
    return out


@pytest.fixture(scope="session")
def high_dim_cells():
    """Fixed random rational lattices (seeded) at n = 6 and 7, keyed by n."""
    rng = make_rng(20261018)
    return {n: compute_relevant_vectors(random_rational_basis(n, rng)) for n in (6, 7)}


@pytest.fixture(scope="session")
def z2_pre():
    return preprocess(LatticeBasis.identity(2))
