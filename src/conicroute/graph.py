"""Data model for conic multi-source multi-destination acyclic di-graphs.

Nodes are partitioned into sources and destinations and carry an offset,
the row/column position they occupy in the transition matrix the graph was
built from. Adjacency is kept sorted by target offset so that "the next
destination" of a source is always its offset successor.

Every node holds a topological rank for as long as the graph lives
(Pearce & Kelly, "A dynamic topological sort algorithm for DAGs", JEA
2006): a new node takes the next rank, so an edge that runs forward in
rank is accepted in O(1). Only an edge against the rank order is searched,
and only within the rank window between its endpoints; it either closes a
cycle or reorders the nodes of that window. add_edge and extend() share
the one step that accepts an edge by this rule, _accept(). A source's first
edges, a matrix row add_edge would accept whole and forward in rank, skip it:
_add_row adds them at once, for build_graph, and keeps no weight set. Beside
it, _add_nodes adds a kind's nodes at once when every add_node would succeed.

Edges are data: each node's adjacency in _out is (dst, weight) pairs, and
a log (_log) holds (src, pairs, provenance) in insertion order, once per
matrix row (sharing its pair tuple with _out), add_edge call and derived
edge; it alone holds provenance, and every derived edge follows every original
one in it. Edge objects are built only on demand: by edges in O(E), by out_edges
in O(fan-out + derived edges). Node, Edge and Violation, like every record of
the package, are NamedTuples: immutable tuples of their fields.

A graph is immutable after freeze(), which drops the state only add_node and
add_edge read and turns each adjacency list into a tuple sorted by target
offset; a matrix row arrives in that order and is kept as it is, and an empty
list becomes () unsorted. freeze() also sets the original view _original, the
one place where a run of parallel edges to one node (only add_edge's lists
hold one) is cut to its lightest edge, the one every shortest path takes.
Derived edges (shortcuts, invented edges) never mutate a frozen graph:
extend() returns it for none, else a new frozen graph with its own ranks that
shares the base's nodes, untouched adjacency tuples and _original. The search
without use_invented, the pair walk and from_graph read _original.
"""

from __future__ import annotations

import enum
import gc
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from functools import wraps
from itertools import groupby, repeat, takewhile
from operator import itemgetter
from typing import NamedTuple

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


def _collector_paused(fn: Callable) -> Callable:
    """fn run with the cyclic collector paused, as timeit times; a nested call
    leaves it alone. The engine makes no reference cycles for it to find."""
    @wraps(fn)
    def paused(*args, **kwargs):
        was = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was:
                gc.enable()
    return paused


class NodeKind(enum.Enum):
    SOURCE = "source"
    DESTINATION = "destination"


class Provenance(enum.Enum):
    ORIGINAL = "original"
    SHORTCUT = "shortcut"
    INVENTED = "invented"


class Node(NamedTuple):
    id: NodeId
    label: str
    kind: NodeKind
    offset: int


class Edge(NamedTuple):
    src: NodeId
    dst: NodeId
    weight: int
    provenance: Provenance = Provenance.ORIGINAL


class Violation(NamedTuple):
    """One node or edge that build_graph could not add; violations are data."""

    code: str
    detail: str


class ConicGraph:
    """Weighted directed acyclic graph with source/destination node kinds."""

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._out: list[list | tuple] = []  # by node id, (dst, weight); sorted tuples once frozen
        self._log: list[tuple[NodeId, tuple, Provenance]] = []  # (src, pairs, provenance)
        self._size = 0  # the edges the log holds
        self._by_label: dict[str, NodeId] = {}
        # filled on first use, so a node without in-edges holds no predecessor list
        self._preds: defaultdict[NodeId, list[NodeId]] = defaultdict(list)
        self._rank: list[int] = []  # every edge runs from a lower rank to a higher one
        # construction-only state, dropped by freeze()
        # keyed (is a source, offset): a bool hashes at C speed, an Enum does not
        self._by_offset: dict[tuple[bool, int], NodeId] = {}
        # add_edge's alone, filled on first use: a matrix row keeps no weight set
        self._out_weights: defaultdict[NodeId, set[int]] = defaultdict(set)
        self._frozen = False

    # --- construction -----------------------------------------------------

    def add_node(self, label: str, kind: NodeKind, offset: int) -> NodeId:
        """Append a node; the returned id equals the previous node count."""
        self._require_mutable()
        if not isinstance(label, str):
            raise ValueError(f"node label must be a string, got {label!r}")
        if not label:
            raise ValueError("node label must be non-empty")
        if not isinstance(kind, NodeKind):
            raise ValueError(f"node kind must be a NodeKind, got {kind!r}")
        if type(offset) is not int:  # exactly int: True and False are ints too
            raise ValueError(f"offset must be an integer, got {offset!r}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if label in self._by_label:
            raise DuplicateLabel(f"label {label!r} already in use")
        offset_key = (kind is NodeKind.SOURCE, offset)
        if offset_key in self._by_offset:
            raise DuplicateOffset(f"offset {offset} already used for a {kind.value}")
        node_id = len(self._nodes)
        node = Node(node_id, label, kind, offset)
        self._nodes.append(node)
        self._out.append([])
        self._rank.append(node_id)
        self._by_label[label] = node_id
        self._by_offset[offset_key] = node_id
        return node_id

    def _add_nodes(self, labels: Sequence[str], kind: NodeKind,
                   offsets: Sequence[int]) -> list[NodeId] | None:
        """add_node(labels[i], kind, offsets[i]) for every node of one kind in one
        step, when every call would succeed; else add nothing and return None.
        The returned ids are the ones the calls would return."""
        keys = list(zip(repeat(kind is NodeKind.SOURCE), offsets))  # add_node's offset keys
        if not (not self._frozen and len(labels) == len(offsets)  # frozen: no _by_offset
                and set(map(type, labels)) <= {str} and all(labels)  # a non-empty str
                and set(map(type, offsets)) <= {int} and min(offsets, default=0) >= 0
                and len(set(labels)) == len(labels) and len(set(offsets)) == len(offsets)
                and self._by_label.keys().isdisjoint(labels)
                and self._by_offset.keys().isdisjoint(keys)):
            return None
        # one int per id, shared by every structure, as add_node shares node_id
        ids = list(range(len(self._nodes), len(self._nodes) + len(labels)))
        # builds each Node without the NamedTuple's Python-level __new__
        self._nodes += map(tuple.__new__, repeat(Node), zip(ids, labels, repeat(kind), offsets))
        self._out += ([] for _ in ids)
        self._rank += ids
        self._by_label.update(zip(labels, ids))
        self._by_offset.update(zip(keys, ids))
        return ids

    def add_edge(self, src: NodeId, dst: NodeId, weight: int) -> EdgeId:
        """Record an original edge; adjacency stays sorted by target offset."""
        self._require_mutable()
        self._check_edge(src, dst, weight)
        if weight in self._out_weights[src]:
            raise EqualAdjacentWeight(
                f"source {self._nodes[src].label!r} already has an edge of weight {weight}"
            )
        self._accept(src, dst, weight, Provenance.ORIGINAL)
        self._out_weights[src].add(weight)
        return self._size - 1

    def _add_row(self, src: NodeId, targets: tuple[NodeId, ...], weights: tuple[int, ...],
                 in_order: bool) -> bool:
        """add_edge(src, targets[i], weights[i]) for a matrix row's distinct targets, src's first
        and only edges (so no weight set is kept), in one step if every call would succeed; else
        add nothing and return False. A row in_order (by target offset) stays freeze()'s tuple."""
        rank, preds, out = self._rank, self._preds, self._out
        if not (not self._frozen and not out[src]  # unsealed, and the source's first edges
                and set(map(type, weights)) == {int} and min(weights) > 0  # _check_edge: an int > 0
                and len(set(weights)) == len(weights)  # add_edge: none twice
                and rank[src] < min(map(rank.__getitem__, targets))):  # _accept: forward, no cycle
            return False
        pairs = tuple(zip(targets, weights))
        out[src] = pairs if in_order else list(pairs)
        self._log.append((src, pairs, Provenance.ORIGINAL))
        self._size += len(pairs)
        for dst in targets:
            preds[dst].append(src)
        return True

    def freeze(self) -> "ConicGraph":
        """Sort adjacency by target offset and seal the graph. Idempotent."""
        if not self._frozen:
            # drop what only add_node and add_edge read; ranks and predecessors stay for extend()
            del self._by_offset, self._out_weights
            # a run is in a list with fewer targets than pairs: a row's targets are distinct
            cut = any(len(dict(a)) < len(a) for a in filter(None, self._out) if type(a) is list)
            # a stable sort: parallel edges keep their order; a tuple is a row in order
            key = self._offset_key
            self._out = [() if not adj else adj if type(adj) is tuple
                         else tuple(sorted(adj, key=key)) for adj in self._out]
            self._original = self._out  # every edge so far is original
            if cut:  # cut each parallel run to its lightest edge
                cuts = [tuple(min(run, key=itemgetter(1)) for _, run in
                              groupby(adj, itemgetter(0))) for adj in self._out]
                self._original = [c if len(c) < len(a) else a for c, a in zip(cuts, self._out)]
            self._frozen = True
        return self

    def extend(self, derived: Iterable[Edge]) -> "ConicGraph":
        """Return a frozen graph with derived (shortcut/invented) edges added.

        The base graph is left untouched, and a frozen graph never changes,
        so with no derived edges it is returned as is. Only SHORTCUT and
        INVENTED edges are taken, so the copy shares the base's original
        adjacency; all are checked first, then accepted by add_edge's step,
        so the combined edge set stays acyclic, and logged after every
        original edge. The copy shares every adjacency tuple it adds nothing
        to and costs O(V) list copies plus the log's, and a sort of each
        adjacency it adds to; a contraction shortcut is forward in rank.
        """
        self._require_frozen()
        derived = tuple(derived)
        if not derived:
            return self
        for edge in derived:
            if edge.provenance not in (Provenance.SHORTCUT, Provenance.INVENTED):
                raise ValueError("extend() accepts derived edges only")
            self._check_edge(edge.src, edge.dst, edge.weight)
        # built field by field: copy.copy reads self.__dict__, which would move
        # this graph's attributes into a dict that slows every later query
        g = ConicGraph.__new__(ConicGraph)
        g._nodes, g._by_label, g._rank = self._nodes, self._by_label, list(self._rank)
        g._log, g._size, g._original, g._frozen = list(self._log), self._size, self._original, True
        out, preds = g._out, g._preds = list(self._out), self._preds.copy()
        # the copy's own lists for the nodes that gain an edge: the base's stay as they are
        gainers = {edge.src for edge in derived}
        for src in gainers:
            out[src] = list(out[src])
        for dst in {edge.dst for edge in derived}:
            preds[dst] = list(preds.get(dst, ()))
        for edge in derived:
            g._accept(edge.src, edge.dst, edge.weight, edge.provenance)
        key = self._offset_key  # stably: a derived edge follows its parallels
        for src in gainers:
            out[src] = tuple(sorted(out[src], key=key))
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
        return self._size

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge in insertion order, built on demand: O(E)."""
        return tuple(Edge(src, dst, weight, kind)
                     for src, pairs, kind in self._log for dst, weight in pairs)

    def node(self, node_id: NodeId) -> Node:
        self._check_node(node_id)
        return self._nodes[node_id]

    def node_by_label(self, label: str) -> Node:
        try:
            return self._nodes[self._by_label[label]]
        except KeyError:
            raise UnknownNode(f"no node labelled {label!r}") from None

    def sources(self) -> list[Node]:
        kind = NodeKind.SOURCE  # read once: an Enum member is a slow class attribute
        return [n for n in self._nodes if n.kind is kind]

    def destinations(self) -> list[Node]:
        kind = NodeKind.DESTINATION
        return [n for n in self._nodes if n.kind is kind]

    def out_edges(self, node_id: NodeId) -> tuple[Edge, ...]:
        """All outgoing edges, sorted ascending by target offset at freeze(),
        built on demand: O(fan-out + derived edges), read off the log's tail."""
        self._require_frozen()
        self._check_node(node_id)
        late = defaultdict(list)  # by target, the provenance of its derived edges, latest first
        for src, ((dst, _),), provenance in takewhile(  # a derived entry holds one pair
                lambda entry: entry[2] is not Provenance.ORIGINAL, reversed(self._log)):
            if src == node_id:
                late[dst].append(provenance)
        # a stable sort put a target's original edges first, then its derived ones in
        # extend()'s order: walked backwards, each derived edge meets its provenance
        edges = [Edge(node_id, dst, weight, late[dst].pop(0) if late[dst] else Provenance.ORIGINAL)
                 for dst, weight in reversed(self._out[node_id])]
        return tuple(reversed(edges))

    def neighbors_ascending(self, node_id: NodeId) -> list[tuple[NodeId, int]]:
        """(target, weight) pairs in ascending target-offset order."""
        self._require_frozen()
        self._check_node(node_id)
        return list(self._out[node_id])

    # --- internals ----------------------------------------------------------

    def _offset_key(self, pair: tuple[NodeId, int]) -> tuple[int, int]:
        dst = pair[0]
        return (self._nodes[dst].offset, dst)

    def _accept(self, src: NodeId, dst: NodeId, weight: int, provenance: Provenance) -> None:
        """Place a checked edge by the rank rule, then record it."""
        if self._rank[src] > self._rank[dst]:
            self._reorder(src, dst)
        pair = (dst, weight)
        self._log.append((src, (pair,), provenance))
        self._out[src].append(pair)
        self._preds[dst].append(src)
        self._size += 1

    def _check_node(self, node_id: NodeId) -> None:
        # exactly int: a bool, float or str must not index the node lists
        if type(node_id) is not int or not 0 <= node_id < len(self._nodes):
            raise UnknownNode(f"no node with id {node_id!r}")

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
            for nxt, _ in out[node]:
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
