"""Search engine tests, anchored by an exhaustive path-enumeration oracle."""

from __future__ import annotations

import random
import tracemalloc
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicroute.dijkstra import path_to, shortest_paths
from conicroute.errors import GraphNotFrozen, Unreachable, UnknownNode
from conicroute.graph import ConicGraph, Edge, NodeKind, Provenance

from conftest import brute_force_distances, graph_from_edges, label_id, random_dag


def test_hospital_row_distances(hospital_graph):
    g = hospital_graph
    rum = label_id(g, "Rumuomasi")
    state = shortest_paths(g, rum)
    assert state.dist[rum] == 0
    assert state.dist[label_id(g, "CMC")] == 312
    assert state.dist[label_id(g, "MC")] == 771
    for label in ("PC", "SC", "PI", "CU", "OC", "HC", "Runmuogba", "Woji", "Ogunabali"):
        assert state.dist[label_id(g, label)] == inf


def test_single_node_graph():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    g.freeze()
    state = shortest_paths(g, s)
    assert state.dist == {s: 0}
    assert path_to(state, s).nodes == (s,)


def test_oracle_equivalence_on_random_dags():
    rng = random.Random(1959)
    for _ in range(200):
        g = random_dag(rng, max_nodes=12)
        source = rng.randrange(g.node_count)
        state = shortest_paths(g, source)
        assert state.dist == brute_force_distances(g, source)


def test_path_to_hospital(hospital_graph):
    g = hospital_graph
    rum = label_id(g, "Rumuomasi")
    state = shortest_paths(g, rum)
    result = path_to(state, label_id(g, "CMC"))
    assert [g.node(n).label for n in result.nodes] == ["Rumuomasi", "CMC"]
    assert result.distance == 312
    assert path_to(state, rum).nodes == (rum,)
    with pytest.raises(Unreachable, match="unreachable from"):
        path_to(state, label_id(g, "PC"))
    # a node id is exactly an int, as the search takes one: 5.0 and True
    # would otherwise find nodes 5 and 1 through the labels' total map
    for target in (g.node_count, 5.0, True, "5"):
        with pytest.raises(Unreachable, match="not part of the search"):
            path_to(state, target)


def test_settled_order_is_monotone():
    rng = random.Random(7)
    for i in range(40):
        # light weights make labels tie, and a tie settles the smaller id first
        g = random_dag(rng, max_nodes=15, max_weight=1000 if i % 2 else 20)
        state = shortest_paths(g, 0)
        keys = [(state.dist[n], n) for n in state.settled_order]
        assert keys == sorted(keys)
        # each reached node is settled once, and only reached nodes have a pred
        reached = [n for n, d in state.dist.items() if d != inf]
        assert sorted(state.settled_order) == reached
        assert set(state.pred) == set(state.settled_order)
    # a's first label (10, via s) is stale once b lowers it to 3: its heap
    # entry must be skipped, not settle a a second time
    s, a, b = range(3)
    g = graph_from_edges(3, [(s, a, 10), (s, b, 1), (b, a, 2)], labels=["s", "a", "b"])
    state = shortest_paths(g, s)
    assert state.settled_order == [s, b, a]
    assert state.pred == {s: None, b: s, a: b}
    assert state.dist == {s: 0, a: 3, b: 1}


def test_path_weights_sum_to_distance():
    rng = random.Random(8)
    for _ in range(40):
        g = random_dag(rng, max_nodes=12)
        weights = {(e.src, e.dst): e.weight for e in g.edges}
        state = shortest_paths(g, 0)
        for node in g.nodes:
            if state.dist[node.id] == inf:
                continue
            path = path_to(state, node.id)
            total = sum(weights[(a, b)] for a, b in zip(path.nodes, path.nodes[1:]))
            assert total == state.dist[node.id] == path.distance


def test_repeat_runs_are_identical():
    g = random_dag(random.Random(42), max_nodes=12)
    first = shortest_paths(g, 0)
    second = shortest_paths(g, 0)
    assert first.dist == second.dist
    assert first.pred == second.pred
    assert first.settled_order == second.settled_order


def test_requires_frozen_graph():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(GraphNotFrozen):
        shortest_paths(g, s)


def test_unknown_source():
    g = graph_from_edges(2, [(0, 1, 5)])
    with pytest.raises(UnknownNode):
        shortest_paths(g, 9)


def test_invented_edges_only_traversed_on_request():
    # s -> d1 (original); d1 -> d2 exists only as an invented edge
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d1 = g.add_node("d1", NodeKind.DESTINATION, 1)
    d2 = g.add_node("d2", NodeKind.DESTINATION, 2)
    g.add_edge(s, d1, 100)
    g.freeze()
    extended = g.extend([Edge(d1, d2, 40, Provenance.INVENTED)])
    plain = shortest_paths(extended, s, use_invented=False)
    assert plain.dist[d2] == inf
    derived = shortest_paths(extended, s, use_invented=True)
    assert derived.dist[d2] == 140


def _search_graph(seed: int) -> ConicGraph:
    """A random DAG plus up to three forward invented edges."""
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=10)
    pairs = [(i, j) for i in range(g.node_count) for j in range(i + 1, g.node_count)]
    invented = [Edge(i, j, rng.randint(1, 1000), Provenance.INVENTED)
                for i, j in rng.sample(pairs, min(3, len(pairs)))]
    return g.extend(invented)


def _answers(labels, keys: list) -> tuple:
    """Every answer a label map gives, keys compared by type as well as value."""
    def attempt(read):
        try:
            return read()
        except (KeyError, TypeError) as exc:
            return type(exc)

    def typed(items):
        return [(type(k), k) for k in items]

    return (
        [attempt(lambda k=k: labels[k]) for k in keys],
        [attempt(lambda k=k: labels.get(k)) for k in keys],
        [attempt(lambda k=k: labels.get(k, "none")) for k in keys],
        [attempt(lambda k=k: k in labels) for k in keys],
        len(labels), typed(labels), typed(labels.keys()),
        [(type(k), k, v) for k, v in labels.items()], list(labels.values()),
        typed(dict(labels)), repr(labels),
    )


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_dist_answers_as_the_dense_label_map(seed, use_invented):
    g = _search_graph(seed)
    n = g.node_count
    source = random.Random(seed).randrange(n)
    state = shortest_paths(g, source, use_invented=use_invented)
    labels = state.dist
    dense = brute_force_distances(g, source, include_derived=use_invented)
    # 2**61 - 1 hashes to 0 without being node 0
    keys = list(range(n)) + [-1, n, True, False, 1.0, 0.5, "a", 2**61 - 1, None, []]

    assert _answers(labels, keys) == _answers(dense, keys)
    assert labels == dense and dense == labels
    assert not (labels != dense) and not (dense != labels)
    other = {**dense, n - 1: -1}
    assert labels != other and other != labels
    assert not (labels == other) and not (other == labels)
    with pytest.raises(TypeError):
        labels[0] = 0
    with pytest.raises(TypeError):
        del labels[0]
    assert labels == dense

    # each reached node's label is its predecessor's plus the lightest
    # edge between them that the search may use
    assert set(state.pred) == set(state.settled_order)
    for node, prev in state.pred.items():
        if node == source:
            assert prev is None
            continue
        hop = min(e.weight for e in g.out_edges(prev) if e.dst == node
                  and (use_invented or e.provenance is Provenance.ORIGINAL))
        assert labels[node] == labels[prev] + hop


def test_a_search_allocates_for_its_fan_out_not_the_node_count():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    for j in range(50_000):
        g.add_node(f"d{j}", NodeKind.DESTINATION, j + 1)
    for dst, weight in ((8, 5), (25_001, 3), (50_000, 9)):
        g.add_edge(s, dst, weight)
    g.freeze()
    tracemalloc.start()
    try:
        state = shortest_paths(g, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    assert state.settled_order == [s, 25_001, 8, 50_000]
    assert state.dist[1] == inf and len(state.dist) == g.node_count
