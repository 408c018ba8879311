"""Single-source shortest paths over a frozen conic graph.

Classic heap-driven search: only the source starts with a label, EXTRACT-MIN
settles one node per round, and each outgoing edge is relaxed. Labels are
stored for reached nodes only, so a search costs the part of the graph it
reaches, not the node count; the finished state reads them as a read-only
total map in which a node not reached has an infinite label. The frontier
uses lazy re-insertion. A node is pushed only when its label strictly drops
and weights are positive, so an entry is stale exactly when its distance
exceeds the node's label; stale entries are discarded on pop against that
label, with no settled set. Ties on distance settle the smaller node id
first, so runs are deterministic. The adjacency is chosen once per search:
the graph's original view, or every edge with use_invented. Either holds
each node's out-edges as (dst, weight) pairs, unpacked into locals; an
edge's provenance lives in the graph's log, which the search never reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple

from .errors import Unreachable
from .graph import ConicGraph, NodeId


class _Labels(Mapping):
    """The labels of a search, read as a total map over node ids 0..n-1.

    Only the reached labels are stored; every other node id reads inf. A key
    names a node exactly as it would in a dict keyed by the ints 0..n-1:
    True and 1.0 find node 1. The map is read-only.
    """

    __slots__ = ("_reached", "_n")

    def __init__(self, reached: dict, n: int) -> None:
        self._reached, self._n = reached, n

    def __getitem__(self, key):
        try:
            return self._reached[key]
        except KeyError:
            h = hash(key)
            if 0 <= h < self._n and key == h:
                return inf
            raise

    def __iter__(self):
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class SearchState(NamedTuple):
    """The finished search from one source.

    ``dist`` is a read-only total map over the graph's nodes in which a
    node not reached reads inf. ``pred`` holds reached nodes only, the
    source mapped to None. ``settled_order`` holds the reached nodes in the
    order they settled: non-decreasing in label, and of two nodes with one
    label the smaller id first; cmd_query reads its best destination off
    that order. A state belongs to a single query; any number of queries may
    run concurrently over one frozen graph.
    """

    source: NodeId
    dist: Mapping[NodeId, int | float]
    pred: dict[NodeId, NodeId | None]
    settled_order: list[NodeId]


class PathResult(NamedTuple):
    target: NodeId
    distance: int
    nodes: tuple[NodeId, ...]


def shortest_paths(graph: ConicGraph, source: NodeId,
                   use_invented: bool = False) -> SearchState:
    """Run the search to completion and return the final state.

    Only original edges are traversed unless use_invented is set, in which
    case shortcut and invented edges participate as well. Unreachable nodes
    read an infinite distance label and have no ``pred`` entry; the nodes
    in ``pred`` are exactly those in ``settled_order``.
    """
    graph._require_frozen()
    graph._check_node(source)
    # the relaxation rule runs inline, on locals: a Python call per edge
    # would cost more than the search itself
    dist = {source: 0}
    pred = {source: None}
    frontier = [(0, source)]
    settled = []
    label_of, out = dist.get, graph._out if use_invented else graph._original
    while frontier:
        d, node = heappop(frontier)
        if d > dist[node]:
            continue  # stale entry superseded by a later, smaller label
        settled.append(node)
        for dst, weight in out[node]:
            label = d + weight
            if label < label_of(dst, inf):
                dist[dst] = label
                pred[dst] = node
                heappush(frontier, (label, dst))
    return SearchState(source, _Labels(dist, graph.node_count), pred, settled)


def path_to(state: SearchState, target: NodeId) -> PathResult:
    """Unwind predecessor labels from target back to the search source.

    The target is a node id as the search takes one: exactly an int in 0..n-1.
    """
    if type(target) is not int or not 0 <= target < len(state.dist):
        raise Unreachable(f"node {target!r} was not part of the search")
    if target not in state.pred:
        raise Unreachable(f"node {target} is unreachable from {state.source}")
    nodes = [target]
    while (prev := state.pred[nodes[-1]]) is not None:
        nodes.append(prev)
    nodes.reverse()
    return PathResult(target, state.dist[target], tuple(nodes))
