"""Search and verification engine for 5-element cycle double covers of
cubic graphs containing a prescribed circuit."""

from .certificates import Certificate, build_certificate, verify_certificate
from .cover import (
    Cdc,
    CdcReport,
    contains_element_superset,
    extend_to_cdc,
    verify_cdc,
)
from .cyclespace import (
    CycleBasis,
    canonical_masks,
    cycle_space_basis,
    enumerate_circuits,
    enumerate_even_subgraphs,
    is_even_subgraph,
)
from .errors import (
    CapacityError,
    ConditionError,
    Graph6Error,
    InvariantViolationError,
    PreconditionError,
    UnsupportedFormatError,
)
from .flows import (
    Flow4,
    coloring_to_flow,
    find_nz4flow,
    has_nz4flow,
    lift_flow,
    three_edge_color,
    verify_flow,
)
from .graphs import (
    EdgeDeletion,
    EdgeSet,
    MultiGraph,
    SuppressionMap,
    bridges,
    components,
    delete_edges,
    is_matching,
    parse_graph6,
    petersen_graph,
    suppress_degree2,
    write_graph6,
)
from .oracle import brute_force_cdc
from .search import (
    SearchContext,
    SearchOptions,
    Sweep,
    find_5cdc_containing,
    has_5cdc,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Cdc",
    "CdcReport",
    "Certificate",
    "ConditionError",
    "CycleBasis",
    "EdgeDeletion",
    "EdgeSet",
    "Flow4",
    "Graph6Error",
    "InvariantViolationError",
    "MultiGraph",
    "PreconditionError",
    "SearchContext",
    "SearchOptions",
    "SuppressionMap",
    "Sweep",
    "UnsupportedFormatError",
    "bridges",
    "brute_force_cdc",
    "build_certificate",
    "canonical_masks",
    "coloring_to_flow",
    "components",
    "contains_element_superset",
    "cycle_space_basis",
    "delete_edges",
    "enumerate_circuits",
    "enumerate_even_subgraphs",
    "extend_to_cdc",
    "find_5cdc_containing",
    "find_nz4flow",
    "has_5cdc",
    "has_nz4flow",
    "is_even_subgraph",
    "is_matching",
    "lift_flow",
    "parse_graph6",
    "petersen_graph",
    "suppress_degree2",
    "three_edge_color",
    "verify_cdc",
    "verify_certificate",
    "verify_flow",
    "write_graph6",
]
