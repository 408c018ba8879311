"""Graph model: construction rules, freezing, adjacency order, validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import label_id, random_conic


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


def test_add_edge_original_provenance():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    edge_id = g.add_edge(s, d, 312)
    assert g.edges[edge_id] == Edge(s, d, 312, Provenance.ORIGINAL)


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
    keyed = []  # the source of every edge the offset sort key is asked about
    real_key = ConicGraph._offset_key

    def counting_key(self, edge):
        keyed.append(edge.src)
        return real_key(self, edge)

    monkeypatch.setattr(ConicGraph, "_offset_key", counting_key)
    empty = g.extend([])
    assert keyed == []
    assert all(empty.out_edges(n.id) is before[n.id] for n in g.nodes)
    assert empty.edges == g.edges

    rum, pc = label_id(g, "Rumuomasi"), label_id(g, "PC")
    shortcut = Edge(rum, pc, 1000, Provenance.SHORTCUT)
    one = g.extend([shortcut])
    assert keyed == [rum] * (len(before[rum]) + 1)
    assert one.out_edges(rum) == before[rum] + (shortcut,)
    assert all(one.out_edges(n.id) is before[n.id] for n in g.nodes if n.id != rum)
    # the base graph is unchanged
    assert [g.out_edges(n.id) for n in g.nodes] == before
    assert g.edge_count == 8 and shortcut not in g.edges
    # the derived edges join the edge list in the order given
    cmc = label_id(g, "CMC")
    interleaved = [Edge(rum, pc, 1000, Provenance.SHORTCUT),
                   Edge(cmc, pc, 1001, Provenance.INVENTED),
                   Edge(rum, cmc, 1002, Provenance.SHORTCUT)]
    assert g.extend(interleaved).edges == g.edges + tuple(interleaved)


def test_extend_rejects_cycles(hospital_graph):
    g = hospital_graph
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    with pytest.raises(CycleCreated):
        g.extend([
            Edge(cmc, mc, 10, Provenance.INVENTED),
            Edge(mc, cmc, 20, Provenance.INVENTED),
        ])


def test_extend_rejects_original_provenance(hospital_graph):
    g = hospital_graph
    with pytest.raises(ValueError):
        g.extend([Edge(0, 5, 10, Provenance.ORIGINAL)])


def test_extend_requires_frozen():
    g = ConicGraph()
    g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(GraphNotFrozen):
        g.extend([])
