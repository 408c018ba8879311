"""Search engine tests, anchored by an exhaustive path-enumeration oracle."""

from __future__ import annotations

import random
from math import inf

import pytest

from conicroute.dijkstra import path_to, relax, shortest_paths, SearchState
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


def test_relax_improves_fresh_label():
    state = SearchState(source=0, dist={0: 0, 1: inf}, pred={0: None, 1: None})
    assert relax(Edge(0, 1, 312), state) is True
    assert state.dist[1] == 312
    assert state.pred[1] == 0
    assert state.frontier  # re-keyed via push


def test_relax_no_improvement():
    state = SearchState(source=0, dist={0: 0, 1: 312}, pred={0: None, 1: 0})
    assert relax(Edge(0, 1, 771), state) is False
    assert state.dist[1] == 312


def test_relax_from_unreached_tail():
    state = SearchState(source=0, dist={0: inf, 1: 500}, pred={0: None, 1: None})
    assert relax(Edge(0, 1, 10), state) is False


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
    with pytest.raises(Unreachable, match="not part of the search"):
        path_to(state, g.node_count)


def test_settled_order_is_monotone():
    rng = random.Random(7)
    for _ in range(40):
        g = random_dag(rng, max_nodes=15)
        state = shortest_paths(g, 0)
        distances = [state.dist[n] for n in state.settled_order]
        assert distances == sorted(distances)
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
