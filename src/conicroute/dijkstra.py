"""Single-source shortest paths over a frozen conic graph.

Classic heap-driven search: every label starts at infinity except the
source, EXTRACT-MIN settles one node per round, and each outgoing edge is
relaxed. The frontier uses lazy re-insertion. relax() pushes a node only
when its label strictly drops and weights are positive, so an entry is
stale exactly when its distance exceeds the node's label; stale entries
are discarded on pop against that label, with no settled set. Ties on
distance settle the smaller node id first, so runs are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import inf

from .errors import Unreachable
from .graph import ConicGraph, Edge, NodeId, Provenance


@dataclass
class SearchState:
    """Working state of one search; final once the frontier is drained.

    ``dist`` holds every node of the graph (infinite when unreached);
    ``pred`` holds reached nodes only, the source mapped to None. A state
    belongs to a single query; any number of queries may run concurrently
    over one frozen graph.
    """

    source: NodeId
    dist: dict[NodeId, int | float]
    pred: dict[NodeId, NodeId | None]
    frontier: list[tuple[int | float, NodeId]] = field(default_factory=list)
    settled_order: list[NodeId] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class PathResult:
    target: NodeId
    distance: int
    nodes: tuple[NodeId, ...]


def relax(edge: Edge, state: SearchState) -> bool:
    """Lower dist[edge.dst] through edge if that improves it.

    Returns whether an update happened; updated nodes are (re)pushed onto
    the frontier.
    """
    tail = state.dist[edge.src]
    if tail + edge.weight < state.dist[edge.dst]:
        state.dist[edge.dst] = tail + edge.weight
        state.pred[edge.dst] = edge.src
        heapq.heappush(state.frontier, (state.dist[edge.dst], edge.dst))
        return True
    return False


def shortest_paths(graph: ConicGraph, source: NodeId,
                   use_invented: bool = False) -> SearchState:
    """Run the search to completion and return the final state.

    Only original edges are traversed unless use_invented is set, in which
    case shortcut and invented edges participate as well. Unreachable nodes
    keep an infinite distance label and have no ``pred`` entry; the nodes
    in ``pred`` are exactly those in ``settled_order``.
    """
    graph._require_frozen()
    graph._check_node(source)
    state = SearchState(
        source=source,
        dist=graph._dist_template.copy(),
        pred={source: None},
    )
    state.dist[source] = 0
    heapq.heappush(state.frontier, (0, source))
    while state.frontier:
        d, node = heapq.heappop(state.frontier)
        if d > state.dist[node]:
            continue  # stale entry superseded by a later, smaller label
        state.settled_order.append(node)
        for edge in graph.out_edges(node):
            if not use_invented and edge.provenance is not Provenance.ORIGINAL:
                continue
            relax(edge, state)
    return state


def path_to(state: SearchState, target: NodeId) -> PathResult:
    """Unwind predecessor labels from target back to the search source."""
    if target not in state.dist:
        raise Unreachable(f"node {target} was not part of the search")
    if state.dist[target] == inf:
        raise Unreachable(f"node {target} is unreachable from {state.source}")
    nodes = [target]
    while nodes[-1] != state.source:
        prev = state.pred[nodes[-1]]
        assert prev is not None
        nodes.append(prev)
    nodes.reverse()
    return PathResult(target=target, distance=int(state.dist[target]),
                      nodes=tuple(nodes))
