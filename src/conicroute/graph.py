"""Data model for conic multi-source multi-destination acyclic di-graphs.

Nodes are partitioned into sources and destinations and carry an offset,
the row/column position they occupy in the transition matrix the graph was
built from. Adjacency is kept sorted by target offset so that "the next
destination" of a source is always its offset successor.

While a graph is being assembled, every node holds a topological rank
(Pearce & Kelly, "A dynamic topological sort algorithm for DAGs", JEA
2006): a new node takes the next rank, so an edge that runs forward in
rank is accepted in O(1). Only an edge against the rank order is searched,
and only within the rank window between its endpoints; it either closes a
cycle or reorders the nodes of that window.

A graph is immutable after freeze(), which drops the construction-only
state, turns each node's out-edge list into a tuple sorted by target
offset and builds the one label template a query copies, so that a query
costs its source's fan-out rather than the node count. Derived edges
(shortcuts from contraction, invented edges) never mutate a frozen graph in
place — extend() returns a new frozen graph that shares the base's nodes,
label template and every adjacency tuple it leaves untouched.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from math import inf

from .errors import (
    CycleCreated,
    DuplicateLabel,
    DuplicateOffset,
    EqualAdjacentWeight,
    GraphFrozen,
    GraphNotFrozen,
    NonPositiveWeight,
    UnknownNode,
)

NodeId = int
EdgeId = int


class NodeKind(enum.Enum):
    SOURCE = "source"
    DESTINATION = "destination"


class Provenance(enum.Enum):
    ORIGINAL = "original"
    SHORTCUT = "shortcut"
    INVENTED = "invented"


@dataclass(frozen=True, slots=True)
class Node:
    id: NodeId
    label: str
    kind: NodeKind
    offset: int


@dataclass(frozen=True, slots=True)
class Edge:
    src: NodeId
    dst: NodeId
    weight: int
    provenance: Provenance = Provenance.ORIGINAL


@dataclass(frozen=True, slots=True)
class Violation:
    """One node or edge that build_graph could not add; violations are data."""

    code: str
    detail: str


class ConicGraph:
    """Weighted directed acyclic graph with source/destination node kinds."""

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        self._out: list[list[Edge]] = []  # by node id; sorted tuples once frozen
        self._by_label: dict[str, NodeId] = {}
        # construction-only state, dropped by freeze()
        self._by_offset: dict[tuple[NodeKind, int], NodeId] = {}
        # filled on first use, so a node without out-edges holds no weight set
        # and one without in-edges no predecessor list
        self._out_weights: defaultdict[NodeId, set[int]] = defaultdict(set)
        self._preds: defaultdict[NodeId, list[NodeId]] = defaultdict(list)
        self._rank: list[int] = []  # every edge runs from a lower rank to a higher one
        self._frozen = False

    # --- construction -----------------------------------------------------

    def add_node(self, label: str, kind: NodeKind, offset: int) -> NodeId:
        """Append a node; the returned id equals the previous node count."""
        self._require_mutable()
        if not label:
            raise ValueError("node label must be non-empty")
        if type(offset) is not int:  # exactly int: True and False are ints too
            raise ValueError(f"offset must be an integer, got {offset!r}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if label in self._by_label:
            raise DuplicateLabel(f"label {label!r} already in use")
        if (kind, offset) in self._by_offset:
            raise DuplicateOffset(f"offset {offset} already used for a {kind.value}")
        node_id = len(self._nodes)
        node = Node(node_id, label, kind, offset)
        self._nodes.append(node)
        self._out.append([])
        self._rank.append(node_id)
        self._by_label[label] = node_id
        self._by_offset[(kind, offset)] = node_id
        return node_id

    def add_edge(self, src: NodeId, dst: NodeId, weight: int) -> EdgeId:
        """Record an original edge; adjacency stays sorted by target offset."""
        self._require_mutable()
        self._check_edge(src, dst, weight)
        if weight in self._out_weights[src]:
            raise EqualAdjacentWeight(
                f"source {self._nodes[src].label!r} already has an edge of weight {weight}"
            )
        if self._rank[src] > self._rank[dst]:
            self._reorder(src, dst)
        edge = Edge(src, dst, weight, Provenance.ORIGINAL)
        self._edges.append(edge)
        self._out[src].append(edge)
        self._out_weights[src].add(weight)
        self._preds[dst].append(src)
        return len(self._edges) - 1

    def freeze(self) -> "ConicGraph":
        """Sort adjacency by target offset and seal the graph. Idempotent."""
        if not self._frozen:
            # drop the state only construction reads: a frozen graph never mutates
            del self._by_offset, self._out_weights, self._rank, self._preds
            # a stable sort, so parallel edges keep the order they were added in
            key = self._offset_key
            self._out = [tuple(sorted(edges, key=key)) if edges else () for edges in self._out]
            # search distance template, copied (at C speed) by every query; no
            # node can be added once frozen, so it stays current
            self._dist_template = dict.fromkeys(range(len(self._nodes)), inf)
            self._frozen = True
        return self

    def extend(self, derived: "list[Edge] | tuple[Edge, ...]") -> "ConicGraph":
        """Return a new frozen graph with derived (shortcut/invented) edges added.

        The base graph is left untouched. The combined edge set must stay
        acyclic; derived edges may not reuse the ORIGINAL provenance. The
        copy shares the base's nodes and label template and every adjacency
        tuple it adds nothing to, so it costs its derived edges, not the graph.
        """
        self._require_frozen()
        added: dict[NodeId, list[Edge]] = {}
        for edge in derived:
            if edge.provenance is Provenance.ORIGINAL:
                raise ValueError("extend() accepts derived edges only")
            self._check_edge(edge.src, edge.dst, edge.weight)
            added.setdefault(edge.src, []).append(edge)
        # built field by field: copy.copy reads self.__dict__, which would move
        # this graph's attributes into a dict that slows every later query
        g = ConicGraph.__new__(ConicGraph)
        g._nodes, g._by_label, g._dist_template = self._nodes, self._by_label, self._dist_template
        g._edges, g._out, g._frozen = self._edges + list(derived), list(self._out), True
        for src, edges in added.items():
            # a stable sort, so a derived edge follows the parallel edge it copies
            g._out[src] = tuple(sorted(self._out[src] + tuple(edges), key=self._offset_key))
        if added and not g._acyclic():
            raise CycleCreated("derived edges close a cycle")
        return g

    # --- queries ------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def node(self, node_id: NodeId) -> Node:
        self._check_node(node_id)
        return self._nodes[node_id]

    def node_by_label(self, label: str) -> Node:
        try:
            return self._nodes[self._by_label[label]]
        except KeyError:
            raise UnknownNode(f"no node labelled {label!r}") from None

    def sources(self) -> list[Node]:
        return [n for n in self._nodes if n.kind is NodeKind.SOURCE]

    def destinations(self) -> list[Node]:
        return [n for n in self._nodes if n.kind is NodeKind.DESTINATION]

    def out_edges(self, node_id: NodeId) -> tuple[Edge, ...]:
        """All outgoing edges, sorted ascending by target offset.

        A frozen graph sorted every node's tuple at freeze(), so a query
        costs one list lookup.
        """
        self._check_node(node_id)
        if self._frozen:
            return self._out[node_id]
        return tuple(sorted(self._out[node_id], key=self._offset_key))

    def neighbors_ascending(self, node_id: NodeId) -> list[tuple[NodeId, int]]:
        """(target, weight) pairs in ascending target-offset order."""
        return [(e.dst, e.weight) for e in self.out_edges(node_id)]

    # --- internals ----------------------------------------------------------

    def _offset_key(self, edge: Edge) -> tuple[int, int]:
        return (self._nodes[edge.dst].offset, edge.dst)

    def _check_node(self, node_id: NodeId) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNode(f"no node with id {node_id}")

    def _check_edge(self, src: NodeId, dst: NodeId, weight: int) -> None:
        """The rules every edge obeys, original or derived."""
        self._check_node(src)
        self._check_node(dst)
        if type(weight) is not int:  # exactly int: True and False are ints too
            raise NonPositiveWeight(f"edge weight must be an integer, got {weight!r}")
        if weight <= 0:
            raise NonPositiveWeight(f"edge weight must be > 0, got {weight}")
        if src == dst:
            raise CycleCreated(f"self loop on node {src}")

    def _require_mutable(self) -> None:
        if self._frozen:
            raise GraphFrozen("graph is frozen")

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise GraphNotFrozen("operation requires a frozen graph")

    def _reorder(self, src: NodeId, dst: NodeId) -> None:
        """Make room for an edge src -> dst with rank[src] > rank[dst].

        Only nodes ranked between dst and src can move. The ones reachable
        from dst form the forward set; reaching src there means the edge
        closes a cycle. The ones reaching src form the backward set. Both
        sets then share their pooled ranks, backward set first, so every
        edge runs forward in rank again, the new one included.
        """
        rank, out, preds = self._rank, self._out, self._preds
        low, high = rank[dst], rank[src]
        forward = [dst]
        seen = {dst}
        for node in forward:  # the list grows while it is walked
            for edge in out[node]:
                nxt = edge.dst
                r = rank[nxt]
                if r == high:
                    raise CycleCreated(f"edge {src}->{dst} would close a cycle")
                if r < high and nxt not in seen:
                    seen.add(nxt)
                    forward.append(nxt)
        backward = [src]
        seen = {src}
        for node in backward:
            for prev in preds.get(node, ()):
                if rank[prev] > low and prev not in seen:
                    seen.add(prev)
                    backward.append(prev)
        moved = sorted(backward, key=rank.__getitem__) + sorted(forward, key=rank.__getitem__)
        for node, r in zip(moved, sorted([rank[n] for n in moved])):
            rank[node] = r

    def _acyclic(self) -> bool:
        """Kahn's algorithm: every node becomes ready exactly when no cycle exists."""
        indegree = [0] * len(self._nodes)
        for edge in self._edges:
            indegree[edge.dst] += 1
        ready = [n for n, d in enumerate(indegree) if d == 0]
        for node in ready:  # the list grows while it is walked
            for edge in self._out[node]:
                dst = edge.dst
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        return len(ready) == len(self._nodes)


def validate(graph: ConicGraph) -> list[Violation]:
    """Structural report on a graph; it is always empty.

    A graph is valid by construction: add_node, add_edge and extend()
    refuse every call that would break a rule (unique labels, unique
    offsets within a node kind, non-negative integer offsets, positive
    integer weights, distinct original weights per source, acyclicity)
    before it takes effect, and build_graph records those refusals as the
    Violations of a matrix.
    """
    return []
