"""cmd_query against a brute-force reference, the isolation of the
per-graph caches that let a query cost its source's fan-out, and why a
search through a source's own inventions changes nothing on a matrix."""

from __future__ import annotations

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicroute.cli import Alternate, cmd_query
from conicroute.dijkstra import _Labels, path_to, shortest_paths
from conicroute.graph import ConicGraph, Edge, NodeKind, Provenance
from conicroute.invention import FitnessReport, HiddenPath, PolicyThreshold, invent_for_source
from conicroute.matrix_io import BuildMatrix, MatrixRow, parse_build_matrix, to_graph

from conftest import MATRIX_PATH, label_id

TOLERANCE = Fraction(1, 10)


@st.composite
def matrices(draw) -> BuildMatrix:
    n_src = draw(st.integers(1, 4))
    n_dst = draw(st.integers(1, 6))
    offsets = sorted(draw(st.sets(st.integers(1, 50), min_size=n_dst, max_size=n_dst)))
    rows = []
    for i in range(n_src):
        columns = draw(st.sets(st.integers(0, n_dst - 1), max_size=n_dst))
        # a source's edges weigh distinct amounts (axiom of distinct paths)
        weights = draw(st.lists(st.integers(1, 60), min_size=len(columns),
                                max_size=len(columns), unique=True))
        rows.append(MatrixRow(f"s{i}", i, tuple(zip(sorted(columns), weights))))
    return BuildMatrix(tuple(f"d{j}" for j in range(n_dst)), tuple(offsets), tuple(rows))


def reference_query(matrix: BuildMatrix, row: MatrixRow,
                    hidden: list[tuple[str, str, int]], allowable: int | None):
    """best and invented alternates read straight off the matrix row."""
    labels, offsets = matrix.destination_labels, matrix.destination_offsets
    cells = [(w, offsets[j], j) for j, w in row.cells]
    best = None
    if cells:
        weight, _, j = min(cells)
        best = (labels[j], weight, [row.source_label, labels[j]])
    alternates = []
    by_offset = sorted(cells, key=lambda c: c[1])
    for (w1, _, j1), (w2, _, j2) in zip(by_offset, by_offset[1:]):
        lo, hi = sorted((w1, w2))
        if allowable is not None and hi - lo > allowable:
            continue
        near, far = (j1, j2) if w1 < w2 else (j2, j1)
        report = None
        for a, b, true in hidden:
            if {a, b} == {labels[near], labels[far]}:
                error = abs(hi - lo - true)
                report = FitnessReport(hi - lo, true, error, Fraction(error, true),
                                       Fraction(error, true) <= TOLERANCE)
                break
        alternates.append(Alternate(labels[near], labels[far], hi - lo, (lo, hi), report))
    return best, alternates


@settings(max_examples=150)
@given(data=st.data(), matrix=matrices())
def test_cmd_query_matches_brute_force(data, matrix):
    graph = to_graph(matrix)
    n_dst = len(matrix.destination_labels)
    pairs = st.tuples(st.integers(0, n_dst - 1), st.integers(0, n_dst - 1),
                      st.integers(1, 80))
    # one hidden path per unordered pair, as parse_hidden_paths enforces
    drawn = data.draw(st.lists(pairs, max_size=8, unique_by=lambda p: frozenset(p[:2])))
    hidden = [(matrix.destination_labels[a], matrix.destination_labels[b], true)
              for a, b, true in drawn]
    allowable = data.draw(st.none() | st.integers(1, 60))
    paths = {}
    for a, b, true in hidden:
        path = HiddenPath(label_id(graph, a), label_id(graph, b), true)
        paths[frozenset((path.src, path.dst))] = path
    for row in matrix.rows:
        result = cmd_query(graph, row.source_label, hidden=paths, tolerance=TOLERANCE,
                           policy=None if allowable is None else PolicyThreshold(allowable))
        assert (result.best, result.invented_alternates) == reference_query(
            matrix, row, hidden, allowable)


def _fixture_graph() -> ConicGraph:
    # a private graph, so that a failing test cannot leak into other tests
    return to_graph(parse_build_matrix(MATRIX_PATH.read_text(encoding="utf-8")))


def test_returned_lists_and_labels_do_not_leak_into_the_next_query():
    g = _fixture_graph()
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    hidden = {frozenset((cmc, mc)): HiddenPath(cmc, mc, 500)}
    first = cmd_query(g, "Rumuomasi", hidden=hidden)
    source = label_id(g, "Rumuomasi")
    state = shortest_paths(g, source)
    dist, pred = dict(state.dist), dict(state.pred)

    g.sources().clear()
    g.destinations().clear()
    for node in state.dist:
        with pytest.raises(TypeError):
            state.dist[node] = 0
        state.pred[node] = source

    assert len(g.sources()) == 4
    assert len(g.destinations()) == 8
    again = shortest_paths(g, source)
    assert again.dist == dist
    assert again.pred == pred
    assert cmd_query(g, "Rumuomasi", hidden=hidden) == first


def test_extended_and_refrozen_graphs_keep_dense_independent_labels():
    g = _fixture_graph()
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    source = label_id(g, "Rumuomasi")
    base = shortest_paths(g, source)
    extended = g.extend([Edge(cmc, mc, 459, Provenance.INVENTED)])
    g.freeze()
    extended.freeze()

    state = shortest_paths(extended, source)
    assert list(state.dist) == list(range(g.node_count))
    for node in state.dist:
        with pytest.raises(TypeError):
            state.dist[node] = 0
    assert shortest_paths(g, source).dist == base.dist
    assert shortest_paths(extended, source).dist[mc] == min(base.dist[mc],
                                                            base.dist[cmc] + 459)


def test_cmd_query_scans_no_destination_list(monkeypatch):
    g = _fixture_graph()
    expected = cmd_query(g, "Woji")

    def scan(self):
        raise AssertionError("cmd_query must not scan every destination")

    monkeypatch.setattr(ConicGraph, "destinations", scan)
    assert cmd_query(g, "Woji") == expected


def test_best_skips_sources_and_breaks_distance_ties_by_offset():
    g = ConicGraph()
    s0 = g.add_node("s0", NodeKind.SOURCE, 0)
    s1 = g.add_node("s1", NodeKind.SOURCE, 1)
    d = g.add_node("d", NodeKind.DESTINATION, 2)
    e = g.add_node("e", NodeKind.DESTINATION, 1)
    g.add_edge(s0, s1, 1)
    g.add_edge(s1, d, 5)
    g.add_edge(s0, e, 6)
    g.freeze()
    # s1 is nearer but is no destination; d and e tie at 6, e has the lower offset
    assert cmd_query(g, "s0", invent=False).best == ("e", 6, ["s0", "e"])


@st.composite
def mixed_dags(draw) -> ConicGraph:
    """A general DAG of sources and destinations, destinations among them
    with out-edges. Each node has up to three out-edges, weighing 1, 2 and 3
    in some order, so that paths of two or more edges often tie."""
    n = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(NodeKind), min_size=n, max_size=n))
    offsets = draw(st.permutations(range(n)))  # unrelated to id order
    g = ConicGraph()
    for i, (kind, offset) in enumerate(zip(kinds, offsets)):
        g.add_node(f"n{i}", kind, offset)
    for i in range(n - 1):
        # forward in id order, so no edge closes a cycle
        targets = draw(st.lists(st.integers(i + 1, n - 1), min_size=min(2, n - 1 - i),
                                max_size=3, unique=True))
        for j, weight in zip(targets, draw(st.permutations((1, 2, 3)))):
            g.add_edge(i, j, weight)
    return g.freeze()


@settings(max_examples=300)
@given(g=mixed_dags())
def test_best_is_the_least_label_offset_and_id_over_every_reached_destination(g):
    for source in g.sources():
        state = shortest_paths(g, source.id)
        reached = [(state.dist[node.id], node.offset, node.id) for node in g.nodes
                   if node.kind is NodeKind.DESTINATION and state.dist[node.id] < inf]
        want = None
        if reached:
            distance, _, target = min(reached)
            want = (g.node(target).label, distance,
                    [g.node(n).label for n in path_to(state, target).nodes])
        assert cmd_query(g, source.label, invent=False).best == want


def test_best_reads_the_labels_of_ties_only(monkeypatch):
    # 40 destinations, the nearest in the middle by offset: the walk reads its
    # label and the next one settled, and path_to reads it once more
    weights = [100 + (17 * j + 20) % 40 for j in range(40)]
    row = MatrixRow("S", 0, tuple(enumerate(weights)))
    g = to_graph(BuildMatrix(tuple(f"d{j}" for j in range(40)), tuple(range(1, 41)), (row,)))
    reads = []
    read = _Labels.__getitem__

    def counted(self, key):
        reads.append(key)
        return read(self, key)

    monkeypatch.setattr(_Labels, "__getitem__", counted)
    result = cmd_query(g, "S")
    assert result.best == ("d20", 100, ["S", "d20"]) and len(result.invented_alternates) == 39
    assert len(reads) <= 3


@settings(max_examples=150)
@given(matrix=matrices())
def test_own_inventions_change_no_search_on_a_matrix(matrix):
    # min + invented = max: a path through a source's own inventions only
    # ties its direct edge, and a tie never replaces a label
    graph = to_graph(matrix)
    for source in graph.sources():
        merged = graph.extend([e.as_edge() for e in invent_for_source(graph, source.id)])
        with_inventions = shortest_paths(merged, source.id, use_invented=True)
        without = shortest_paths(graph, source.id)
        assert with_inventions.dist == without.dist
        assert with_inventions.pred == without.pred
        assert with_inventions.settled_order == without.settled_order


def test_own_inventions_shorten_paths_off_a_matrix():
    # a destination-to-destination edge makes the identity above fail, which
    # is why shortest_paths keeps its use_invented keyword
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    b = g.add_node("b", NodeKind.DESTINATION, 1)
    a = g.add_node("a", NodeKind.DESTINATION, 2)
    c = g.add_node("c", NodeKind.DESTINATION, 3)
    for src, dst, weight in ((s, b, 3), (s, a, 10), (s, c, 20), (b, a, 1)):
        g.add_edge(src, dst, weight)
    g.freeze()
    merged = g.extend([e.as_edge() for e in invent_for_source(g, s)])
    assert shortest_paths(g, s).dist[c] == 20
    assert shortest_paths(merged, s, use_invented=True).dist[c] == 14  # s-b-a-c: 3+1+10
