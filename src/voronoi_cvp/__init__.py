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
    EncodingStats,
    LatticeBasis,
    LatticePoint,
    Scalar,
    Target,
    coset_reps_mod2,
    covering_radius_upper,
    encoding_length,
    encoding_length_int,
    encoding_stats,
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
from .oracles import CvpSolutionSet, cvp_bruteforce, enumerate_ball, graph_distance_bfs, shortest_vector
from .sampling import (
    LaplaceParams,
    LaplaceSample,
    SampleStream,
    SamplerConfig,
    gamma_sample,
    laplace_voronoi_sample,
    uniform_sample,
    uniform_voronoi_rejection,
)
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
from .voronoi import (
    RelevantVector,
    VoronoiCellData,
    compute_relevant_vectors,
    membership,
    sandwich_radii,
    voronoi_norm,
)
