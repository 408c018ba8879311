"""Node contraction with witness search.

Contracting a node u considers in-neighbors that come earlier in the
contraction order and out-neighbors that come later. For each such pair
(v, w) the candidate shortcut weighs w(v,u) + w(u,w); it is emitted only
when no witness path from v to w that avoids u is at most that weight.
Shortcuts are added to the working edge set (never removed), so later
contractions and witness searches see them.

Candidate pairs are examined cheapest first: a short shortcut emitted
early can witness away a longer overlapping one, which keeps the overlay
minimal and the outcome deterministic.
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
                    goal: NodeId, bound: int, excluded: frozenset[NodeId]) -> bool:
    """True iff a path start -> goal avoiding excluded weighs <= bound."""
    dist = {start: 0}
    heap = [(0, start)]
    done: set[NodeId] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if d > bound:
            return False
        if node == goal:
            return True
        if node in done:
            continue
        done.add(node)
        for nxt, weight in out_adj.get(node, {}).items():
            if nxt in excluded or nxt in done:
                continue
            nd = d + weight
            if nd <= bound and nd < dist.get(nxt, nd + 1):
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

    def __init__(self, graph: ConicGraph, order: Sequence[NodeId] | None = None):
        graph._require_frozen()
        if order is None:
            order = range(graph.node_count)
        order = tuple(order)
        if sorted(order) != list(range(graph.node_count)):
            raise BadOrder("order must be a permutation of all node ids")
        self.graph = graph
        self.order = order
        self._pos = {node: i for i, node in enumerate(order)}
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
            if v != w
        ]
        pairs.sort()
        emitted: list[Shortcut] = []
        for bound, v, w in pairs:
            if _bounded_search(self._out, v, w, bound, frozenset((u,))):
                continue
            shortcut = Shortcut(v, w, bound, u)
            emitted.append(shortcut)
            self._add(v, w, bound)
        self._contracted.add(u)
        self.shortcuts.extend(emitted)
        return emitted

    def _add(self, src: NodeId, dst: NodeId, weight: int) -> None:
        prior = self._out[src].get(dst)
        if prior is None or weight < prior:
            self._out[src][dst] = weight
            self._in[dst][src] = weight


def contract_node(graph: ConicGraph, u: NodeId,
                  order: Sequence[NodeId] | None = None) -> list[Shortcut]:
    """One-shot contraction of a single node in an otherwise intact graph."""
    return Contractor(graph, order).contract(u)


def build_hierarchy(graph: ConicGraph,
                    order: Iterable[NodeId] | None = None) -> Overlay:
    """Contract every node in order, accumulating the shortcut overlay."""
    contractor = Contractor(graph, None if order is None else tuple(order))
    for node in contractor.order:
        contractor.contract(node)
    return Overlay(base=graph, shortcuts=tuple(contractor.shortcuts),
                   order=contractor.order)
