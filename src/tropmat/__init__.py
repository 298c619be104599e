"""tropmat: exact combinatorics of tropical matroid polytopes."""

from .minplus import (
    DimensionMismatch,
    FineType,
    TropicalHalfspace,
    TropicalPoint,
    corner_point,
    fine_type,
    halfspace_contains,
    in_tconv,
)
from .matroids import (
    BridgeEdgeError,
    DisconnectedGraphError,
    GraphError,
    GraphFormatError,
    GroundMatroid,
    LabeledGraph,
    LoopEdgeError,
    MatroidError,
    ParallelEdgeError,
    check_exchange,
    enumerate_bases,
    matroid_from_bases,
    non_bases,
    parse_bases,
    parse_graph,
    uniform_matroid,
)
from .polytopes import (
    BoundedCell,
    PolytopeModel,
    PseudoVertex,
    build_polytope,
    maximal_bounded_cells,
    pseudovertex_label,
    pseudovertices,
    skeleton_dot,
)
from .cells import (
    CapExceeded,
    CellComplexModel,
    CellRecord,
    CrossValidationReport,
    cross_validate,
    enumerate_all_cells,
    enumerate_maximal_cells,
    hypersimplex_coarse_types,
    maximal_cell_coarse_types,
)
from .ideals import (
    MonomialIdeal,
    divides,
    ideal_generators,
    is_minimal_generating,
    monomial_str,
)
from .halfspaces import (
    ContainmentError,
    ExteriorReport,
    HalfspaceSystem,
    cornered_halfspaces,
    hypersimplex_halfspaces,
    inequality_str,
    is_minimal_halfspace,
    verify_exterior_description,
)

__version__ = "0.1.0"
