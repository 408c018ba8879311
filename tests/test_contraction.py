"""Contraction: witness search, shortcut emission, overlay preservation."""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conicroute import contraction
from conicroute.contraction import Contractor, Shortcut, build_hierarchy, contract_node
from conicroute.dijkstra import shortest_paths
from conicroute.errors import AlreadyContracted, GraphNotFrozen
from conicroute.graph import ConicGraph, NodeKind

from conftest import graph_from_edges, min_path_avoiding, random_dag


def detour_pattern() -> ConicGraph:
    """v -> u -> w (2 + 2) beside a cheaper chain v -> x -> y -> w (1+1+1)."""
    labels = ["v", "x", "y", "u", "w"]
    return graph_from_edges(5, [
        (0, 3, 2),  # v -> u
        (3, 4, 2),  # u -> w
        (0, 1, 1),  # v -> x
        (1, 2, 1),  # x -> y
        (2, 4, 1),  # y -> w
    ], labels)


def test_witness_found_on_detour_pattern():
    g = detour_pattern()
    # enumeration agrees: cheapest v -> w path avoiding u weighs 3
    assert min_path_avoiding(g, 0, 4, banned=3) == 3
    assert contract_node(g, 3) == []  # v -> u -> w weighs 4
    lighter = graph_from_edges(5, [(0, 3, 1), (3, 4, 1), (0, 1, 2), (1, 2, 1), (2, 4, 1)])
    assert contract_node(lighter, 3) == [Shortcut(0, 4, 2, 3)]  # the detour weighs 4


def test_no_witness_when_middle_is_the_only_route():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 2)])
    assert contract_node(g, 1) == [Shortcut(0, 2, 4, 1)]


def test_direct_edge_is_a_one_edge_witness():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 2), (0, 2, 4)])
    assert contract_node(g, 1) == []


def test_witness_matches_enumeration_exactly():
    rng = random.Random(31)
    for _ in range(60):
        g = random_dag(rng, max_nodes=8, max_weight=20)
        two_hops = [(a, b) for a in g.edges for b in g.edges if a.dst == b.src]
        for first, second in rng.sample(two_hops, min(10, len(two_hops))):
            v, u, w = first.src, first.dst, second.dst
            # u's other out-neighbours come before u and its other in-neighbours
            # after it, so (v, w) is the only pair u's contraction examines
            head = [e.dst for e in g.edges if e.src == u and e.dst != w] + [v, u]
            order = head + [n for n in range(g.node_count) if n not in head]
            bound = first.weight + second.weight
            expected = [] if min_path_avoiding(g, v, w, banned=u) <= bound else [
                Shortcut(v, w, bound, u)]
            assert contract_node(g, u, order) == expected


def test_contract_forced_chain_middle():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 3)], ["a", "b", "c"])
    shortcuts = contract_node(g, 1)
    assert len(shortcuts) == 1
    s = shortcuts[0]
    assert (s.src, s.dst, s.weight, s.via) == (0, 2, 5, 1)


def test_contract_skips_witnessed_pair():
    g = detour_pattern()
    assert contract_node(g, 3) == []  # u contributes nothing: the detour wins


def test_contract_isolated_node():
    g = ConicGraph()
    g.add_node("lone", NodeKind.SOURCE, 0)
    g.freeze()
    assert contract_node(g, 0) == []


def test_contract_twice_rejected():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 3)])
    contractor = Contractor(g)
    contractor.contract(1)
    with pytest.raises(AlreadyContracted):
        contractor.contract(1)


def test_build_hierarchy_requires_frozen():
    g = ConicGraph()
    g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(GraphNotFrozen):
        build_hierarchy(g)


def test_build_hierarchy_chain():
    g = graph_from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], ["a", "b", "c", "d"])
    overlay = build_hierarchy(g, [0, 1, 2, 3])
    pairs = {(s.src, s.dst) for s in overlay.shortcuts}
    assert (0, 2) in pairs                       # a->c always forced
    assert pairs <= {(0, 2), (0, 3), (1, 3)}     # the rest are the chain skips
    extended = overlay.extended_graph()
    base_state = shortest_paths(g, 0)
    ext_state = shortest_paths(extended, 0, use_invented=True)
    assert ext_state.dist[3] == base_state.dist[3] == 9


def test_build_hierarchy_chain_default_order():
    # a and c have no pairs when the walk reaches them, and d none either once
    # c is contracted; b's pair (a, c) is gone by the time b comes off the heap
    g = graph_from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], ["a", "b", "c", "d"])
    overlay = build_hierarchy(g)
    assert overlay.order == (0, 2, 3, 1)
    assert overlay.shortcuts == ()


def test_build_hierarchy_hospital_graph_has_no_through_nodes(hospital_graph):
    overlay = build_hierarchy(hospital_graph)
    assert overlay.shortcuts == ()
    assert overlay.order == tuple(range(hospital_graph.node_count))


def test_build_hierarchy_empty_graph():
    g = ConicGraph().freeze()
    overlay = build_hierarchy(g)
    assert overlay.shortcuts == ()
    assert overlay.order == ()


def test_build_hierarchy_bad_order_rejected():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        build_hierarchy(g, [0, 0, 1])


def test_distance_preservation_on_random_dags():
    rng = random.Random(4242)
    for _ in range(50):
        g = random_dag(rng, max_nodes=50, density=0.15)
        overlay = build_hierarchy(g)
        extended = overlay.extended_graph()
        for source in range(g.node_count):
            base = shortest_paths(g, source)
            merged = shortest_paths(extended, source, use_invented=True)
            assert merged.dist == base.dist  # nothing shortened, nothing lost


def test_shortcut_weight_is_sum_of_its_two_hops():
    rng = random.Random(555)
    for _ in range(30):
        g = random_dag(rng, max_nodes=20, density=0.3)
        contractor = Contractor(g)
        for u in contractor.order:
            before = {src: dict(t) for src, t in contractor._out.items()}
            for s in contractor.contract(u):
                assert s.via == u
                assert s.weight == before[s.src][u] + before[u][s.dst]


def test_no_shortcut_when_enumeration_finds_a_witness():
    rng = random.Random(77)
    for _ in range(80):
        g = random_dag(rng, max_nodes=8, max_weight=12, density=0.7)
        u = rng.randrange(g.node_count)
        emitted = {(s.src, s.dst) for s in contract_node(g, u)}
        in_w = {e.src: e.weight for e in g.edges if e.dst == u}
        out_w = {e.dst: e.weight for e in g.edges if e.src == u}
        for v, win in in_w.items():
            for w, wout in out_w.items():
                if v == w or not (v < u < w):
                    continue
                if min_path_avoiding(g, v, w, banned=u) <= win + wout:
                    assert (v, w) not in emitted


def _oracle_shortcuts(g: ConicGraph, order: list[int]) -> list[Shortcut]:
    """Every shortcut of a whole hierarchy, by enumeration over the edge set."""
    pos = {node: i for i, node in enumerate(order)}
    shortcuts: list[Shortcut] = []
    current = g
    for u in order:
        into, out = {}, {}  # the lightest edge per neighbour, originals and shortcuts alike
        for e in current.edges:
            if e.dst == u and pos[e.src] < pos[u]:
                into[e.src] = min(e.weight, into.get(e.src, e.weight))
            if e.src == u and pos[e.dst] > pos[u]:
                out[e.dst] = min(e.weight, out.get(e.dst, e.weight))
        for bound, v, w in sorted((win + wout, v, w) for v, win in into.items()
                                  for w, wout in out.items()):
            if min_path_avoiding(current, v, w, banned=u) > bound:
                shortcuts.append(Shortcut(v, w, bound, u))
                current = g.extend([s.as_edge() for s in shortcuts])
    return shortcuts


@st.composite
def small_dags(draw) -> ConicGraph:
    """Up to 7 nodes, forward edges only, small distinct weights per tail so
    that bounds and witnesses often tie."""
    n = draw(st.integers(2, 7))
    edges = []
    for tail in range(n - 1):
        heads = draw(st.lists(st.integers(tail + 1, n - 1), unique=True, max_size=4))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(heads),
                                max_size=len(heads), unique=True))
        edges += [(tail, head, weight) for head, weight in zip(heads, weights)]
    return graph_from_edges(n, edges)


@settings(max_examples=150)
@given(st.data())
def test_hierarchy_shortcuts_match_enumeration_oracle(data):
    g = data.draw(small_dags())
    for order in (list(range(g.node_count)),
                  data.draw(st.permutations(range(g.node_count)))):
        expected = _oracle_shortcuts(g, list(order))
        assert list(build_hierarchy(g, order).shortcuts) == expected


def _pair_count_order(g: ConicGraph) -> tuple[int, ...]:
    """The default order by its rule: one heap seeded (0, id) for every node;
    a popped node is recounted from the current edges, shortcuts included, and
    contracted unless its (count, id) now exceeds the heap top."""
    heap = [(0, u) for u in range(g.node_count)]
    done: list[int] = []
    current = g
    while heap:
        u = heapq.heappop(heap)[1]
        into = {e.src for e in current.edges if e.dst == u and e.src in done}
        out = {e.dst for e in current.edges if e.src == u and e.dst not in done}
        key = (len(into) * len(out), u)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        done.append(u)
        rest = [n for n in range(g.node_count) if n not in done]
        shortcuts = [s for s in _oracle_shortcuts(g, done + rest) if s.via in done]
        current = g.extend([s.as_edge() for s in shortcuts])
    return tuple(done)


@settings(max_examples=100)
@given(small_dags())
# node 4 is contracted in the walk, so when 2 comes off the heap its one
# out-neighbour no longer counts: its count is 0, not 2, and it goes before 3
@example(graph_from_edges(5, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 1), (2, 4, 1), (3, 4, 1)]))
def test_default_order_is_the_lazy_pair_count_order(g):
    overlay = build_hierarchy(g)
    assert list(overlay.shortcuts) == _oracle_shortcuts(g, list(overlay.order))
    assert overlay.order == _pair_count_order(g)


@st.composite
def bipartite_graphs(draw) -> ConicGraph:
    """A matrix graph with its sources and destinations in any id order."""
    kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=1, max_size=9))
    g = ConicGraph()
    for i, kind in enumerate(kinds):
        g.add_node(f"n{i}", kind, i)
    sources = [i for i, kind in enumerate(kinds) if kind is NodeKind.SOURCE]
    destinations = [i for i, kind in enumerate(kinds) if kind is NodeKind.DESTINATION]
    for src in sources:
        heads = draw(st.lists(st.sampled_from(destinations), unique=True)) if destinations else []
        for weight, dst in enumerate(heads, start=1):
            g.add_edge(src, dst, weight)
    return g.freeze()


@settings(max_examples=100)
@given(bipartite_graphs())
def test_default_order_is_id_order_on_bipartite_graphs(g):
    overlay = build_hierarchy(g)
    assert overlay.order == tuple(range(g.node_count))
    assert overlay.shortcuts == ()


def _bench_like_dag(rng: random.Random, n: int, edges: int, reach: int) -> ConicGraph:
    """n nodes and the given number of distinct forward edges, each head at
    most reach ids past its tail, with distinct weights per tail."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < edges:
        tail = rng.randrange(n - 1)
        pairs.add((tail, rng.randint(tail + 1, min(n - 1, tail + reach))))
    weights: dict[int, list[int]] = {}
    listed = []
    for tail, head in sorted(pairs):
        if tail not in weights:
            weights[tail] = rng.sample(range(1, 1000), reach)
        listed.append((tail, head, weights[tail].pop()))
    return graph_from_edges(n, listed)


def test_default_order_does_less_witness_work_than_id_order(monkeypatch):
    """A work count, not a wall clock: witness searches and shortcuts."""
    g = _bench_like_dag(random.Random(9), 300, 900, 30)
    searches = [0]
    search = contraction._bounded_search

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(contraction, "_bounded_search", counted)
    work = {}
    for name, order in (("default", None), ("id", range(g.node_count))):
        searches[0] = 0
        shortcuts = len(build_hierarchy(g, order).shortcuts)
        work[name] = (searches[0], shortcuts)
    (default_searches, default_shortcuts), (id_searches, id_shortcuts) = work.values()
    assert default_searches * 10 < id_searches, work
    assert default_shortcuts * 4 < id_shortcuts, work
