"""Shortest-path engine for conic multi-source multi-destination graphs.

Alongside the classic heap-driven search and contraction shortcuts, the
engine invents candidate edges between adjacent destinations of a source
as the absolute difference of their edge weights, and grades them against
known hidden paths. ``__all__`` is every public name that the imports bind.
"""

from types import ModuleType as _ModuleType

from .contraction import (
    Contractor,
    Overlay,
    Shortcut,
    build_hierarchy,
    contract_node,
)
from .dijkstra import PathResult, SearchState, path_to, shortest_paths
from .dot import export_dot
from .errors import (
    AlreadyContracted,
    BadOrder,
    ConicRouteError,
    CycleCreated,
    DuplicateLabel,
    DuplicateOffset,
    EndpointMismatch,
    EqualAdjacentWeight,
    GraphFrozen,
    GraphNotFrozen,
    MalformedHeader,
    NonIntegerCell,
    NonPositiveWeight,
    NotASource,
    ParseError,
    RaggedRow,
    Unreachable,
    UnknownNode,
    UnknownSourceLabel,
    ValidationFailed,
)
from .graph import (
    ConicGraph,
    Edge,
    Node,
    NodeKind,
    Provenance,
    Violation,
    validate,
)
from .invention import (
    DEFAULT_TOLERANCE,
    FitnessReport,
    HiddenPath,
    InventedEdge,
    PolicyThreshold,
    absolute_edge_difference,
    fitness,
    invent_all,
    invent_for_source,
    triangle_bounds,
)
from .matrix_io import (
    BuildMatrix,
    MatrixRow,
    build_graph,
    emit_build_matrix,
    from_graph,
    parse_build_matrix,
    parse_hidden_paths,
    to_graph,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
