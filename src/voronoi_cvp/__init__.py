"""Exact closest-vector solving by navigating the Voronoi cell tiling.

The package computes the facet-inducing (relevant) vectors of a lattice's
Voronoi cell, walks the cell tiling along straight segments with exact
rational arithmetic, and answers closest-vector queries as a Las Vegas
algorithm whose answers are always certified exactly.  Brute-force oracles
and crossing-count experiments validate the walk's guarantees.
"""

__version__ = "0.1.0"

from .errors import (
    ContractViolation,
    InputError,
    RestartLimitExceeded,
    SizeCapError,
    TieDetected,
)
from .lattice import (
    LatticeBasis,
    LatticePoint,
    Target,
    coset_reps_mod2,
    encoding_length,
    encoding_length_int,
    qbar,
)
from .navigation import (
    TRUNCATED,
    CrossingEvent,
    PathTrace,
    Truncated,
    count_crossings,
    iterative_slicer,
    line_follow,
    mv_walk,
    randomized_straight_line,
)
from .oracles import CvpSolutionSet, cvp_bruteforce, graph_distance_bfs
from .sampling import SampleStream, SamplerConfig, uniform_sample
from .solver import (
    PreprocessedLattice,
    QueryParams,
    SolveResult,
    certify,
    make_query_params,
    preprocess,
    query,
    round_to_start,
)
from .voronoi import VoronoiCellData, compute_relevant_vectors, membership, voronoi_norm
