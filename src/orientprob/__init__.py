"""Connection probabilities in randomly oriented graphs.

An undirected graph is oriented by independent biased coin flips, one per
edge. This package computes exact probabilities of directed-connection
events (by enumeration and by a conditioned recursion), verifies the
associated correlation inequalities on concrete instances, estimates
probabilities by seeded Monte Carlo, and runs finite-box experiments on the
square lattice.
"""

from .errors import InputError, InternalError, ResourceLimitError
from .graphs import (
    Edge,
    EventExpr,
    Graph,
    Orientation,
    PackedBatch,
    RandomStream,
    holds,
    make_graph,
    parse_graph,
    reach_many,
    reachable_set,
    sample_orientation,
)
from .exact import (
    ExactEngine,
    ExactResult,
    SubsetDistribution,
    brute_force_prob,
    exact_connection_prob,
    exact_joint_prob,
    out_neighborhood_distribution,
    reachable_set_distribution,
)
from .generators import complete_graph, path_graph, random_graph, triangle_graph
from .grid import (
    Grid,
    GridReachStats,
    GridSpec,
    Witness,
    WitnessSearchResult,
    build_grid,
    find_nonmonotonicity_witness,
    grid_reach_stats,
)
from .inequalities import (
    AlmLinussonResult,
    SetFunctionQuadruple,
    SourceSetPolicy,
    VerificationReport,
    alm_linusson_covariance,
    build_proof_quadruple,
    check_four_functions,
    merge_reports,
    percolation_cluster_distribution,
    total_variation,
    verify_mcdiarmid,
    verify_theorem_1,
    verify_theorem_2,
)
from .montecarlo import EstimateReport, estimate_event, estimate_slack

__version__ = "0.1.0"

__all__ = [
    "AlmLinussonResult",
    "Edge",
    "EstimateReport",
    "EventExpr",
    "ExactEngine",
    "ExactResult",
    "Graph",
    "Grid",
    "GridReachStats",
    "GridSpec",
    "InputError",
    "InternalError",
    "Orientation",
    "PackedBatch",
    "RandomStream",
    "ResourceLimitError",
    "SetFunctionQuadruple",
    "SourceSetPolicy",
    "SubsetDistribution",
    "VerificationReport",
    "Witness",
    "WitnessSearchResult",
    "alm_linusson_covariance",
    "brute_force_prob",
    "build_grid",
    "build_proof_quadruple",
    "check_four_functions",
    "complete_graph",
    "estimate_event",
    "estimate_slack",
    "exact_connection_prob",
    "exact_joint_prob",
    "find_nonmonotonicity_witness",
    "grid_reach_stats",
    "holds",
    "make_graph",
    "merge_reports",
    "out_neighborhood_distribution",
    "parse_graph",
    "path_graph",
    "percolation_cluster_distribution",
    "random_graph",
    "reach_many",
    "reachable_set",
    "reachable_set_distribution",
    "sample_orientation",
    "total_variation",
    "triangle_graph",
    "verify_mcdiarmid",
    "verify_theorem_1",
    "verify_theorem_2",
]
