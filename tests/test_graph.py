"""Graph model: construction rules, freezing, adjacency order, validation."""

from __future__ import annotations

import hashlib
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicroute import graph as graph_module
from conicroute.cli import OK, main
from conicroute.contraction import contract_node
from conicroute.dijkstra import shortest_paths
from conicroute.dot import export_dot
from conicroute.errors import (
    ConicRouteError,
    CycleCreated,
    DuplicateLabel,
    DuplicateOffset,
    EqualAdjacentWeight,
    GraphFrozen,
    GraphNotFrozen,
    NonPositiveWeight,
    UnknownNode,
)
from conicroute.graph import ConicGraph, Edge, Node, NodeKind, Provenance, validate
from conicroute.invention import invent_all, invent_for_source
from conicroute.matrix_io import (
    BuildMatrix,
    MatrixRow,
    build_graph,
    parse_build_matrix,
    to_graph,
)

from conftest import MATRIX_PATH, label_id, random_conic, random_dag


def test_add_node_ids_are_sequential():
    g = ConicGraph()
    assert g.add_node("Rumuomasi", NodeKind.SOURCE, 0) == 0
    assert g.add_node("CMC", NodeKind.DESTINATION, 1) == 1
    assert g.node_count == 2


def test_add_node_duplicate_label_rejected():
    g = ConicGraph()
    g.add_node("CMC", NodeKind.DESTINATION, 1)
    with pytest.raises(DuplicateLabel):
        g.add_node("CMC", NodeKind.DESTINATION, 9)


def test_add_node_negative_offset_rejected():
    g = ConicGraph()
    with pytest.raises(ValueError, match="offset must be non-negative, got -1"):
        g.add_node("a", NodeKind.SOURCE, -1)
    assert g.node_count == 0


@pytest.mark.parametrize("offset", [0.5, True], ids=["half", "bool"])
def test_add_node_non_integer_offset_rejected_and_graph_unchanged(offset):
    g = ConicGraph()
    g.add_node("a", NodeKind.SOURCE, 1)
    with pytest.raises(ValueError) as err:
        g.add_node("b", NodeKind.SOURCE, offset)
    assert str(err.value) == f"offset must be an integer, got {offset!r}"
    assert g.nodes == (Node(0, "a", NodeKind.SOURCE, 1),)
    g.add_node("b", NodeKind.SOURCE, 0)  # the label and offset 0 are still free


@pytest.mark.parametrize("label, kind, message", [
    ("b", "source", "node kind must be a NodeKind, got 'source'"),
    (7, NodeKind.DESTINATION, "node label must be a string, got 7"),
], ids=["str_kind", "int_label"])
def test_add_node_bad_kind_or_label_rejected_and_graph_unchanged(label, kind, message):
    g = ConicGraph()
    g.add_node("a", NodeKind.SOURCE, 1)
    with pytest.raises(ValueError) as err:
        g.add_node(label, kind, 0)
    assert str(err.value) == message
    assert g.nodes == (Node(0, "a", NodeKind.SOURCE, 1),)
    assert g.sources() + g.destinations() == list(g.nodes)
    g.add_node("b", NodeKind.SOURCE, 0)  # the label and offset 0 are still free


def test_add_node_duplicate_offset_within_kind_rejected():
    g = ConicGraph()
    g.add_node("a", NodeKind.SOURCE, 0)
    with pytest.raises(DuplicateOffset):
        g.add_node("b", NodeKind.SOURCE, 0)
    # the same offset is fine for the other kind
    g.add_node("c", NodeKind.DESTINATION, 0)


def _node_state(g: ConicGraph) -> tuple:
    # a Node equals the plain tuple of its fields: its type is compared apart
    return g.nodes, [*map(type, g.nodes)], g._out, g._rank, g._by_label, g._by_offset


def test_add_nodes_adds_what_add_node_would_or_nothing():
    g, want = ConicGraph(), ConicGraph()
    for graph in (g, want):
        graph.add_node("a", NodeKind.SOURCE, 0)
    assert g._add_nodes(["b", "c"], NodeKind.SOURCE, [1, 2]) == [1, 2]
    assert [want.add_node(label, NodeKind.SOURCE, i) for i, label in ((1, "b"), (2, "c"))] \
        == [1, 2]
    assert _node_state(g) == _node_state(want)
    # each has one add_node call that fails: a label or an offset already taken,
    # or an offset for no label
    for labels, offsets in ((["d", "a"], [3, 4]), (["d", "e"], [3, 2]), (["d"], [3, 4])):
        assert g._add_nodes(labels, NodeKind.SOURCE, offsets) is None
        assert _node_state(g) == _node_state(want)
    assert g._add_nodes(["d"], NodeKind.DESTINATION, [2]) == [3]  # offsets are per kind
    g.freeze()
    assert g._add_nodes(["e"], NodeKind.SOURCE, [5]) is None
    assert g.node_count == 4


def _row_state(g: ConicGraph) -> tuple:
    # copies, so that a refused row is compared with the state before it
    return ([list(adj) if type(adj) is list else adj for adj in g._out], list(g._log),
            {node: list(preds) for node, preds in g._preds.items()}, g.edge_count)


def test_add_row_adds_a_sources_first_edges_as_add_edge_would_or_nothing():
    g, want = ConicGraph(), ConicGraph()
    for graph in (g, want):
        s, t, u, d, e = (graph.add_node(label, kind, offset) for label, kind, offset in (
            ("s", NodeKind.SOURCE, 0), ("t", NodeKind.SOURCE, 1), ("u", NodeKind.SOURCE, 2),
            ("d", NodeKind.DESTINATION, 0), ("e", NodeKind.DESTINATION, 1)))
    assert g._add_row(s, (d, e), (5, 3), True)
    want.add_edge(s, d, 5)
    want.add_edge(s, e, 3)
    assert g.edges == want.edges and g.edge_count == 2 and not g._out_weights
    assert g._out[s] == ((d, 5), (e, 3)) and g._log[0][1] is g._out[s]  # in order: one tuple
    # each has one add_edge call that fails, or a source that has an edge already
    for src, targets, weights in ((s, (e,), (7,)), (t, (d, e), (4, 4)), (t, (d, e), (4, 0)),
                                  (t, (d, e), (4, 2.0)), (t, (d, e), (4, True)),
                                  (t, (s, d), (4, 2))):  # t -> s runs against the rank order
        before = _row_state(g)
        assert g._add_row(src, targets, weights, True) is False
        assert _row_state(g) == before
    assert g._add_row(t, (e, d), (4, 2), False)  # out of order: a list that freeze() sorts
    assert g._out[t] == [(e, 4), (d, 2)]
    g.freeze()
    assert g._out[t] == ((d, 2), (e, 4)) and g._original is g._out
    assert g._add_row(u, (d,), (1,), True) is False  # sealed, though u has no edge
    assert g._out[u] == () and g.edge_count == 4


@pytest.mark.parametrize("offsets", [(1, 2, 3), (3, 2, 1)], ids=["ascending", "descending"])
def test_a_clean_matrix_reaches_freeze_with_no_weight_set(monkeypatch, matrix_text, offsets):
    weight_sets, freeze = [], ConicGraph.freeze

    def recording(self):
        weight_sets.append(dict(self._out_weights))
        return freeze(self)

    monkeypatch.setattr(ConicGraph, "freeze", recording)
    hand_built = BuildMatrix(("a", "b", "c"), offsets, (
        MatrixRow("s", 0, ((0, 5), (2, 3))), MatrixRow("t", 1, ((0, 4), (1, 6), (2, 2)))))
    for matrix, edges in ((hand_built, 5), (parse_build_matrix(matrix_text), 8)):
        g, violations = build_graph(matrix)
        assert violations == [] and g.edge_count == edges
    assert weight_sets == [{}, {}]


def test_add_edge_original_provenance():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    edge_id = g.add_edge(s, d, 312)
    assert g.edges[edge_id] == Edge(s, d, 312, Provenance.ORIGINAL) == Edge(s, d, 312)


def test_add_edge_zero_weight_rejected():
    g = ConicGraph()
    s = g.add_node("Rumuomasi", NodeKind.SOURCE, 0)
    d = g.add_node("CMC", NodeKind.DESTINATION, 1)
    for weight in (0, -5):
        with pytest.raises(NonPositiveWeight) as err:
            g.add_edge(s, d, weight)
        assert str(err.value) == f"edge weight must be > 0, got {weight}"


@pytest.mark.parametrize("weight", [0.5, 3.7, True], ids=["half", "fraction", "bool"])
def test_non_integer_weight_rejected_and_graph_unchanged(weight):
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d1 = g.add_node("d1", NodeKind.DESTINATION, 1)
    d2 = g.add_node("d2", NodeKind.DESTINATION, 2)
    g.add_edge(s, d1, 3)
    with pytest.raises(NonPositiveWeight) as err:
        g.add_edge(s, d2, weight)
    assert str(err.value) == f"edge weight must be an integer, got {weight!r}"
    assert g.edges == (Edge(s, d1, 3),)
    g.add_edge(s, d2, 4)  # the rejected weight left no trace among s's weights
    g.freeze()
    edges, out = g.edges, [g.out_edges(n.id) for n in g.nodes]
    with pytest.raises(NonPositiveWeight) as err:
        g.extend([Edge(d1, d2, weight, Provenance.INVENTED)])
    assert str(err.value) == f"edge weight must be an integer, got {weight!r}"
    assert (g.edges, [g.out_edges(n.id) for n in g.nodes]) == (edges, out)


def test_add_edge_equal_weight_same_source_rejected():
    g = ConicGraph()
    s = g.add_node("Rumuomasi", NodeKind.SOURCE, 0)
    d1 = g.add_node("CMC", NodeKind.DESTINATION, 1)
    d2 = g.add_node("MC", NodeKind.DESTINATION, 2)
    g.add_edge(s, d1, 312)
    with pytest.raises(EqualAdjacentWeight):
        g.add_edge(s, d2, 312)


def test_distinct_sources_may_reuse_weights():
    g = ConicGraph()
    s1 = g.add_node("s1", NodeKind.SOURCE, 0)
    s2 = g.add_node("s2", NodeKind.SOURCE, 1)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    g.add_edge(s1, d, 100)
    g.add_edge(s2, d, 100)  # no complaint


def test_add_edge_unknown_node():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(UnknownNode):
        g.add_edge(s, 99, 10)
    with pytest.raises(UnknownNode):
        g.add_edge(99, s, 10)


@pytest.mark.parametrize("bad", [0.5, 1.0, "0", None, True], ids=repr)
def test_node_ids_must_be_exact_ints(bad):
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    for src, dst in ((bad, d), (s, bad)):
        with pytest.raises(UnknownNode):
            g.add_edge(src, dst, 3)
    assert g.edges == () and not g._out_weights
    g.add_edge(s, d, 3)
    g.freeze()
    for call in (g.node, g.out_edges, partial(shortest_paths, g), partial(contract_node, g)):
        with pytest.raises(UnknownNode):
            call(bad)


def test_add_edge_cycle_rejected():
    g = ConicGraph()
    a = g.add_node("a", NodeKind.SOURCE, 0)
    b = g.add_node("b", NodeKind.SOURCE, 1)
    c = g.add_node("c", NodeKind.SOURCE, 2)
    g.add_edge(a, b, 1)
    g.add_edge(b, c, 2)
    with pytest.raises(CycleCreated):
        g.add_edge(c, a, 3)
    with pytest.raises(CycleCreated):
        g.add_edge(a, a, 3)


def _reaches(edges: list[tuple[int, int]], start: int, goal: int) -> bool:
    """Brute-force reachability over an edge list."""
    seen, stack = {start}, [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for src, dst in edges:
            if src == node and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return False


@st.composite
def _edge_streams(draw):
    """Node count and an edge insertion sequence. Most edges follow a hidden
    topological order that is unrelated to node creation order; the rest run
    against it and may close a cycle."""
    n = draw(st.integers(2, 9))
    topo = draw(st.permutations(range(n)))
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)),
        max_size=40,
    ))
    edges = []
    for a, b, kind in steps:
        low, high = sorted((a, b))
        edges.append((topo[high], topo[low]) if kind == 0 else (topo[low], topo[high]))
    return n, edges


@settings(max_examples=400)
@given(_edge_streams())
def test_add_edge_refuses_exactly_the_cycle_closing_edges(stream):
    n, edges = stream
    g = ConicGraph()
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.SOURCE, i)
    accepted: list[tuple[int, int]] = []
    for weight, (src, dst) in enumerate(edges, start=1):
        if src == dst or _reaches(accepted, dst, src):
            ranks = list(g._rank)
            with pytest.raises(CycleCreated):
                g.add_edge(src, dst, weight)
            assert g._rank == ranks  # a refused edge moves nothing
            continue
        g.add_edge(src, dst, weight)
        accepted.append((src, dst))
        assert sorted(g._rank) == list(range(n))
        assert all(g._rank[e.src] < g._rank[e.dst] for e in g.edges)
    assert [(e.src, e.dst) for e in g.edges] == accepted


@st.composite
def _extend_streams(draw):
    """A DAG drawn like _edge_streams but with every edge along its hidden
    order, then batches of derived edges for extend(). A batch edge against
    that order may close a cycle, and one with equal endpoints is a self-loop."""
    n = draw(st.integers(2, 9))
    topo = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    base = [(topo[min(a, b)], topo[max(a, b)])
            for a, b in draw(st.lists(pairs, max_size=25)) if a != b]
    batches = []
    for batch in draw(st.lists(st.lists(st.tuples(
            pairs, st.booleans(), st.sampled_from([Provenance.SHORTCUT, Provenance.INVENTED])),
            max_size=6), min_size=1, max_size=5)):
        edges = []
        for (a, b), backward, provenance in batch:
            low, high = sorted((a, b))
            src, dst = (topo[high], topo[low]) if backward else (topo[low], topo[high])
            edges.append(Edge(src, dst, len(edges) + 1, provenance))
        batches.append(edges)
    return n, base, batches


def _ranked_state(g: ConicGraph):
    return (g.edges, [g.out_edges(i) for i in range(g.node_count)], list(g._rank),
            {node: list(preds) for node, preds in g._preds.items()})


@settings(max_examples=300)
@given(_extend_streams())
def test_extend_refuses_exactly_the_cycle_closing_batches(stream):
    """extend() refuses a batch exactly when base plus batch has a cycle,
    never changes the graph it extends, and an accepted result keeps every
    edge forward in rank, so extending it again obeys the same rules."""
    n, base, batches = stream
    g = ConicGraph()
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.SOURCE, i)
    for weight, (src, dst) in enumerate(base, start=1):
        g.add_edge(src, dst, weight)
    first, first_state = g.freeze(), _ranked_state(g)
    for derived in batches:
        before = _ranked_state(g)
        links = [(e.src, e.dst) for e in g.edges + tuple(derived)]
        if any(_reaches(links, dst, src) for src, dst in links):
            with pytest.raises(CycleCreated):
                g.extend(derived)
            assert _ranked_state(g) == before
            continue
        extended = g.extend(derived)
        assert _ranked_state(g) == before
        assert extended.edges == g.edges + tuple(derived)
        assert sorted(extended._rank) == list(range(n))
        assert all(extended._rank[e.src] < extended._rank[e.dst] for e in extended.edges)
        g = extended
    assert _ranked_state(first) == first_state


@st.composite
def _split_edge_lists(draw):
    """Node offsets in a drawn order and one edge list with distinct weights,
    split into a base part and a derived part. Edges run either way in node
    id, so a derived edge may run against rank, close a cycle or be a
    self-loop."""
    n = draw(st.integers(2, 8))
    offsets = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=24))
    weights = draw(st.lists(st.integers(1, 10**6), min_size=len(pairs),
                            max_size=len(pairs), unique=True))
    edges = [(src, dst, weight) for (src, dst), weight in zip(pairs, weights)]
    cut = draw(st.integers(0, len(edges)))
    return offsets, edges[:cut], edges[cut:]


@settings(max_examples=400)
@given(_split_edge_lists())
def test_extend_accepts_edges_as_add_edge_does(split):
    """base.extend(derived) refuses exactly what adding the same edges by
    add_edge refuses, and otherwise orders every adjacency the same way."""
    offsets, base_edges, derived_edges = split

    def empty() -> ConicGraph:
        g = ConicGraph()
        for node, offset in enumerate(offsets):
            g.add_node(f"n{node}", NodeKind.DESTINATION, offset)
        return g

    base, whole = empty(), empty()
    for src, dst, weight in base_edges:
        try:
            base.add_edge(src, dst, weight)
        except CycleCreated:  # the base stays a DAG
            continue
        whole.add_edge(src, dst, weight)
    derived = [Edge(src, dst, weight, Provenance.INVENTED) for src, dst, weight in derived_edges]
    base.freeze()
    try:
        for src, dst, weight in derived_edges:
            whole.add_edge(src, dst, weight)
    except CycleCreated:
        with pytest.raises(CycleCreated):
            base.extend(derived)
        return
    extended, whole = base.extend(derived), whole.freeze()
    for node in range(len(offsets)):
        assert ([(e.dst, e.weight) for e in extended.out_edges(node)]
                == [(e.dst, e.weight) for e in whole.out_edges(node)])
    assert sorted(extended._rank) == list(range(len(offsets)))
    assert all(extended._rank[e.src] < extended._rank[e.dst] for e in extended.edges)


# a few bad values among the good ones: a call drawn from these is refused
# for an unknown id, a repeated label, (kind, offset) or source weight, a
# self-loop or a cycle as well
_NODE_CALLS = st.tuples(st.just("add_node"), st.sampled_from([*"abcdefgh", 7]),
                        st.sampled_from([*NodeKind, "source"]),
                        st.sampled_from((0, 1, 2, 3, 4, 5, -1, 0.5, True)))
_EDGE_CALLS = st.tuples(st.just("add_edge"), st.integers(-1, 6), st.integers(-1, 6),
                        st.sampled_from((1, 2, 3, 4, 0, -1, 2.5, True)))


@settings(max_examples=200)
@given(st.lists(_NODE_CALLS, min_size=8, max_size=16),
       st.lists(st.one_of(_NODE_CALLS, _EDGE_CALLS, _EDGE_CALLS), min_size=30, max_size=60))
def test_graph_is_valid_by_construction(first, rest):
    """Any stream of add_node/add_edge calls, bad values mixed in, leaves a
    graph that obeys every rule; a refused call changes nothing. The stream
    opens with node calls so that most edge calls find their nodes."""
    g = ConicGraph()
    for method, *args in first + rest:
        counts = (g.node_count, g.edge_count)
        try:
            getattr(g, method)(*args)
        except (ConicRouteError, ValueError):
            assert (g.node_count, g.edge_count) == counts
    g.freeze()
    nodes, edges = g.nodes, g.edges
    assert all(isinstance(n.label, str) and isinstance(n.kind, NodeKind) for n in nodes)
    assert len({n.label for n in nodes}) == len(nodes)
    assert len({(n.kind, n.offset) for n in nodes}) == len(nodes)
    assert all(type(n.offset) is int and n.offset >= 0 for n in nodes)
    assert all(type(e.weight) is int and e.weight > 0 for e in edges)
    for node in nodes:
        weights = [e.weight for e in edges if e.src == node.id]
        assert len(set(weights)) == len(weights)
    links = [(e.src, e.dst) for e in edges]
    assert not any(_reaches(links, dst, src) for src, dst in links)
    assert validate(g) == []


@pytest.mark.parametrize("shape", ["forward", "reverse", "against_creation_order"])
def test_long_chain_builds_and_refuses_its_closing_edge(shape):
    n = 4000
    g = ConicGraph()
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.SOURCE, i)
    links = [(i, i + 1) for i in range(n - 1)]
    if shape == "reverse":
        links.reverse()
    elif shape == "against_creation_order":
        links = [(dst, src) for src, dst in links]
    for src, dst in links:
        g.add_edge(src, dst, 1)
    first, last = (0, n - 1) if shape != "against_creation_order" else (n - 1, 0)
    with pytest.raises(CycleCreated):
        g.add_edge(last, first, 1)
    assert g.edge_count == n - 1
    assert validate(g.freeze()) == []


def test_freeze_blocks_mutation_and_queries_still_work():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    g.add_edge(s, d, 7)
    g.freeze()
    assert g.frozen
    with pytest.raises(GraphFrozen):
        g.add_node("x", NodeKind.SOURCE, 5)
    with pytest.raises(GraphFrozen):
        g.add_edge(s, d, 9)
    assert g.neighbors_ascending(s) == [(d, 7)]
    g.freeze()  # idempotent


def test_freeze_cuts_only_the_runs_of_parallel_edges(hospital_graph):
    g = ConicGraph()
    s, t = (g.add_node(label, NodeKind.SOURCE, i) for i, label in enumerate("st"))
    d, e = (g.add_node(label, NodeKind.DESTINATION, i + 1) for i, label in enumerate("de"))
    for src, dst, weight in ((s, d, 5), (s, d, 3), (s, e, 9), (t, d, 4), (t, e, 2)):
        g.add_edge(src, dst, weight)
    g.freeze()
    # out_edges keeps every edge; the original view keeps the lightest of each run
    assert g.neighbors_ascending(s) == [(d, 5), (d, 3), (e, 9)]
    assert g._original[s] == ((d, 3), (e, 9))
    assert g._original[t] is g._out[t]  # no run: the sealed pair tuple itself
    assert hospital_graph._original is hospital_graph._out  # no run anywhere


@settings(max_examples=300)
@given(_edge_streams(), st.permutations(range(1, 41)), st.permutations(range(9)))
def test_freeze_keeps_the_lightest_edge_to_each_target_in_offset_order(stream, weights, offsets):
    """On add_edge graphs that repeat (src, dst) pairs with distinct weights, each
    node's original view is its lightest edge to each target, by target offset,
    and it is the adjacency itself exactly when no source repeats a target."""
    n, edges = stream
    g = ConicGraph()
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.SOURCE, offsets[i])
    lightest: dict[int, dict[int, int]] = {i: {} for i in range(n)}
    for (src, dst), weight in zip(edges, weights):
        try:
            g.add_edge(src, dst, weight)
        except CycleCreated:
            continue
        lightest[src][dst] = min(weight, lightest[src].get(dst, weight))
    repeats = len(g.edges) > sum(map(len, lightest.values()))
    g.freeze()
    for node, view in lightest.items():
        assert g._original[node] == tuple(sorted(view.items(), key=lambda p: offsets[p[0]]))
    assert (g._original is g._out) is not repeats


def test_neighbors_ascending_hospital_rows(hospital_graph):
    g = hospital_graph
    rum = label_id(g, "Rumuomasi")
    assert [(g.node(n).label, w) for n, w in g.neighbors_ascending(rum)] == [
        ("CMC", 312), ("MC", 771),
    ]
    woji = label_id(g, "Woji")
    assert [(g.node(n).label, w) for n, w in g.neighbors_ascending(woji)] == [
        ("PI", 966), ("CU", 472),
    ]
    assert g.neighbors_ascending(label_id(g, "CMC")) == []
    with pytest.raises(UnknownNode):
        g.neighbors_ascending(999)


def test_neighbors_sorted_by_offset_property():
    rng = random.Random(20240817)
    for _ in range(50):
        g = random_conic(rng)
        for node in g.nodes:
            offsets = [g.node(t).offset for t, _ in g.neighbors_ascending(node.id)]
            assert offsets == sorted(offsets)
            assert len(set(offsets)) == len(offsets)


def test_randomly_built_graphs_validate_clean():
    rng = random.Random(99)
    for _ in range(50):
        g = random_conic(rng)
        assert validate(g) == []


def test_validate_hospital_graph_empty(hospital_graph):
    assert validate(hospital_graph) == []


def test_extend_returns_new_frozen_graph(hospital_graph):
    g = hospital_graph
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    extended = g.extend([Edge(cmc, mc, 459, Provenance.INVENTED)])
    assert extended.frozen
    assert extended.edge_count == g.edge_count + 1
    assert g.edge_count == 8  # base untouched
    assert (mc, 459) in extended.neighbors_ascending(cmc)
    # a derived edge parallel to an original one sorts right after it
    rum = label_id(g, "Rumuomasi")
    original = g.out_edges(rum)
    parallel = Edge(rum, cmc, 999, Provenance.SHORTCUT)
    at_cmc = [e for e in g.extend([parallel]).out_edges(rum) if e.dst == cmc]
    assert at_cmc == [e for e in original if e.dst == cmc] + [parallel]
    assert g.out_edges(rum) == original


def test_extend_shares_untouched_adjacency_and_sorts_only_touched_nodes(
        hospital_graph, monkeypatch):
    g = hospital_graph
    before = [g.out_edges(n.id) for n in g.nodes]
    keyed = []  # every (dst, weight) pair the offset sort key is asked about
    real_key = ConicGraph._offset_key

    def counting_key(self, pair):
        keyed.append(pair)
        return real_key(self, pair)

    monkeypatch.setattr(ConicGraph, "_offset_key", counting_key)
    assert g.extend([]) is g  # a frozen graph never changes
    assert keyed == []

    rum, pc = label_id(g, "Rumuomasi"), label_id(g, "PC")
    shortcut = Edge(rum, pc, 1000, Provenance.SHORTCUT)
    one = g.extend([shortcut])
    assert sorted(keyed) == sorted([(e.dst, e.weight) for e in before[rum]] + [(pc, 1000)])
    assert one.out_edges(rum) == before[rum] + (shortcut,)
    assert all(one._out[n.id] is g._out[n.id] for n in g.nodes if n.id != rum)
    # the base graph is unchanged
    assert [g.out_edges(n.id) for n in g.nodes] == before
    assert g.edge_count == 8 and shortcut not in g.edges
    # the derived edges join the edge list in the order given
    cmc = label_id(g, "CMC")
    interleaved = [Edge(rum, pc, 1000, Provenance.SHORTCUT),
                   Edge(cmc, pc, 1001, Provenance.INVENTED),
                   Edge(rum, cmc, 1002, Provenance.SHORTCUT)]
    assert g.extend(interleaved).edges == g.edges + tuple(interleaved)


def test_extend_takes_any_iterable_of_derived_edges(hospital_graph):
    g = hospital_graph
    derived = [e.as_edge() for e in invent_for_source(g, label_id(g, "Rumuomasi"))]
    as_list = g.extend(derived)
    assert as_list.edge_count == g.edge_count + len(derived) > g.edge_count
    for extended in (g.extend(e for e in derived), g.extend(tuple(derived))):
        assert extended.edges == as_list.edges
        assert [extended.out_edges(n.id) for n in g.nodes] == \
            [as_list.out_edges(n.id) for n in g.nodes]
    assert g.extend(iter(())) is g
    rum, cmc = label_id(g, "Rumuomasi"), label_id(g, "CMC")
    with pytest.raises(ValueError, match="derived edges only"):
        g.extend(e for e in derived + [Edge(rum, cmc, 7, Provenance.ORIGINAL)])


@st.composite
def _dags_with_derived_edges(draw):
    """A random_dag and forward derived edges for it: some parallel to an
    original edge, some leaving a node with two or more original out-edges."""
    base = random_dag(random.Random(draw(st.integers(0, 2**32 - 1))))
    n = base.node_count
    fanned = [v for v in range(n) if len(base.out_edges(v)) >= 2]
    derived = []
    for _ in range(draw(st.integers(1, 12))):
        pick = draw(st.sampled_from(["parallel", "fanned", "any"]))
        if pick == "parallel" and base.edges:
            src, dst = draw(st.sampled_from([(e.src, e.dst) for e in base.edges]))
        else:
            src = draw(st.sampled_from(fanned) if pick == "fanned" and fanned
                       else st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
        derived.append(Edge(src, dst, draw(st.integers(1, 1000)),
                            draw(st.sampled_from([Provenance.SHORTCUT, Provenance.INVENTED]))))
    return base, derived, draw(st.integers(0, len(derived)))


@settings(max_examples=200)
@given(_dags_with_derived_edges())
def test_an_extended_graph_searches_and_pairs_the_originals_of_its_base(case):
    # the search without use_invented and the pair walk read original edges only
    base, derived, cut = case
    once = base.extend(list(derived))
    twice = base.extend(derived[:cut]).extend(derived[cut:])
    for s in range(base.node_count):
        plain = shortest_paths(base, s)
        expected = (dict(plain.dist), plain.pred, plain.settled_order)
        for extended in (once, twice):
            state = shortest_paths(extended, s)
            assert (dict(state.dist), state.pred, state.settled_order) == expected
            assert invent_for_source(extended, s) == invent_for_source(base, s)


@settings(max_examples=200)
@given(_dags_with_derived_edges())
def test_out_edges_are_a_nodes_logged_edges_by_target_offset(case):
    # provenance is read off the log's tail: a derived edge parallel to another keeps its own
    base, derived, cut = case
    for g in (base, base.extend(derived), base.extend(derived[:cut]).extend(derived[cut:])):
        logged = sorted(g.edges, key=lambda e: (g.node(e.dst).offset, e.dst))  # stably
        for n in range(g.node_count):
            assert g.out_edges(n) == tuple(e for e in logged if e.src == n)


def test_extend_rejects_cycles(hospital_graph):
    g = hospital_graph
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    with pytest.raises(CycleCreated):
        g.extend([
            Edge(cmc, mc, 10, Provenance.INVENTED),
            Edge(mc, cmc, 20, Provenance.INVENTED),
        ])


def test_extend_rejects_original_provenance(hospital_graph):
    """Only SHORTCUT and INVENTED edges are derived; anything else is refused
    and the graph is unchanged."""
    g = hospital_graph
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    before = (g.edges, [g.out_edges(n.id) for n in g.nodes])
    for provenance in (Provenance.ORIGINAL, "shortcut", None, 3):
        with pytest.raises(ValueError, match="derived edges only"):
            g.extend([Edge(cmc, mc, 459, Provenance.INVENTED), Edge(cmc, mc, 459, provenance)])
        assert (g.edges, [g.out_edges(n.id) for n in g.nodes]) == before


def test_extend_requires_frozen():
    g = ConicGraph()
    g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(GraphNotFrozen):
        g.extend([])


def test_adjacency_queries_require_frozen():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    g.add_edge(s, g.add_node("d", NodeKind.DESTINATION, 1), 3)
    for query in (g.out_edges, g.neighbors_ascending):
        with pytest.raises(GraphNotFrozen):
            query(s)


def _shuffled_graph_with_derived_edges() -> tuple[ConicGraph, ConicGraph]:
    """A DAG whose offsets run against its ids, built by add_edge in shuffled
    order with one parallel run, and that graph extended twice with
    interleaved SHORTCUT and INVENTED edges, some parallel to originals."""
    rng = random.Random(26)
    g = ConicGraph()
    for i, offset in enumerate(rng.sample(range(1, 40), 12)):
        g.add_node(f"n{i}", NodeKind.SOURCE if i < 4 else NodeKind.DESTINATION, offset)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.35]
    edges += [(0, 5), (0, 5), (0, 5)]  # a parallel run of four
    weights = rng.sample(range(1, 500), len(edges))
    weighted = [(src, dst, w) for (src, dst), w in zip(edges, weights)]
    rng.shuffle(weighted)
    for src, dst, weight in weighted:
        g.add_edge(src, dst, weight)
    g.freeze()
    kinds = [Provenance.SHORTCUT, Provenance.INVENTED]
    derived = [Edge(src, dst, rng.randint(1, 600), kinds[k % 2])
               for k, (src, dst) in enumerate(rng.sample(edges, 6) + [(1, 9), (2, 11), (0, 5)])]
    return g, g.extend(derived[:5]).extend(derived[5:])


def test_edge_order_matches_its_pinned_digest():
    # every public reading of adjacency and of the edge list, in order
    parts = []
    for g in _shuffled_graph_with_derived_edges():
        parts += [export_dot(g), repr(g.edges)]
        for n in g.nodes:
            parts += [repr(g.out_edges(n.id)), repr(g.neighbors_ascending(n.id))]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "7d0e66209639eba2c19078f635f68521c1209d88ac2c692c74e4485741bc4f5b"


def test_the_hot_paths_build_no_edge_and_a_matrix_freezes_unsorted(monkeypatch, capsys):
    # adjacency is (dst, weight) pairs: an Edge is built only when a caller asks for one
    def no_edge(*args, **kwargs):
        raise AssertionError("an Edge was built")

    keyed = []
    real_key = ConicGraph._offset_key

    def counting_key(self, pair):
        keyed.append(pair)
        return real_key(self, pair)

    def counting_sort(*args, **kwargs):
        keyed.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(graph_module, "Edge", no_edge)
    monkeypatch.setattr(ConicGraph, "_offset_key", counting_key)
    monkeypatch.setattr(graph_module, "sorted", counting_sort, raising=False)
    g = to_graph(parse_build_matrix(MATRIX_PATH.read_text(encoding="utf-8")))
    # a clean matrix's rows arrive in offset order, and a destination's empty list is ()
    assert keyed == []
    for node in g.nodes:
        for use_invented in (False, True):
            shortest_paths(g, node.id, use_invented)
    export_dot(g, invented=[e for edges in invent_all(g).values() for e in edges])
    for command in ("invent", "build"):
        assert main([command, str(MATRIX_PATH)]) == OK
    capsys.readouterr()
    with pytest.raises(AssertionError, match="an Edge was built"):
        g.out_edges(0)  # the public API still builds them, through the patched name
