"""Search and verification engine for 5-element cycle double covers of
cubic graphs containing a prescribed circuit."""

from .certificates import Certificate, verify_certificate
from .cyclespace import canonical_masks, enumerate_circuits, is_even_subgraph
from .errors import (
    CapacityError,
    Graph6Error,
    InvariantViolationError,
    PreconditionError,
    UnsupportedFormatError,
)
from .flows import flow_planes, has_nz4flow, is_flow, three_edge_color
from .graphs import MultiGraph, parse_graph6, spanning_forest, write_graph6
from .search import SearchContext, SearchOptions, Sweep, find_5cdc_containing

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Certificate",
    "Graph6Error",
    "InvariantViolationError",
    "MultiGraph",
    "PreconditionError",
    "SearchContext",
    "SearchOptions",
    "Sweep",
    "UnsupportedFormatError",
    "canonical_masks",
    "enumerate_circuits",
    "find_5cdc_containing",
    "flow_planes",
    "has_nz4flow",
    "is_even_subgraph",
    "is_flow",
    "parse_graph6",
    "spanning_forest",
    "three_edge_color",
    "verify_certificate",
    "write_graph6",
]
