"""Edge invention, fitness grading, policy gating, and their algebra."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conicroute.invention as invention
from conicroute.cli import cmd_query
from conicroute.dijkstra import shortest_paths
from conicroute.dot import export_dot
from conicroute.errors import (
    EndpointMismatch,
    GraphNotFrozen,
    NonPositiveWeight,
    NotASource,
    UnknownNode,
)
from conicroute.graph import ConicGraph, NodeKind, Provenance
from conicroute.invention import (
    HiddenPath,
    InventedEdge,
    PolicyThreshold,
    absolute_edge_difference,
    fitness,
    invent_all,
    invent_for_source,
    triangle_bounds,
)
from conicroute.matrix_io import parse_hidden_paths

from conftest import HIDDEN_PATH, label_id, random_conic


def test_absolute_edge_difference_worked_example():
    assert absolute_edge_difference(312, 771) == 459
    assert absolute_edge_difference(966, 472) == 494
    assert absolute_edge_difference(40, 40) == 0


def test_absolute_edge_difference_rejects_non_positive():
    with pytest.raises(NonPositiveWeight):
        absolute_edge_difference(0, 5)
    with pytest.raises(NonPositiveWeight):
        absolute_edge_difference(5, -1)


def test_triangle_bounds_examples():
    assert triangle_bounds(312, 771) == (1083, 459)
    assert triangle_bounds(374, 382) == (756, 8)
    assert triangle_bounds(7, 7) == (14, 0)
    with pytest.raises(NonPositiveWeight):
        triangle_bounds(0, 3)


def test_aed_algebra_over_random_pairs():
    rng = random.Random(1083)
    for _ in range(1000):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        aed = absolute_edge_difference(a, b)
        assert aed == absolute_edge_difference(b, a)
        assert min(a, b) + aed == max(a, b)
        upper, lower = triangle_bounds(a, b)
        assert lower == aed <= upper


def test_invent_for_source_worked_example(hospital_graph):
    g = hospital_graph
    edges = invent_for_source(g, label_id(g, "Rumuomasi"))
    assert len(edges) == 1
    edge = edges[0]
    assert g.node(edge.src).label == "CMC"
    assert g.node(edge.dst).label == "MC"
    assert edge.weight == 459
    assert edge.pair_weights == (312, 771)
    assert edge.origin == label_id(g, "Rumuomasi")


def test_invent_for_source_ogunabali(hospital_graph):
    g = hospital_graph
    (edge,) = invent_for_source(g, label_id(g, "Ogunabali"))
    assert (g.node(edge.src).label, g.node(edge.dst).label, edge.weight) == ("OC", "HC", 54)


def test_invent_single_destination_yields_nothing():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    g.add_edge(s, d, 10)
    g.freeze()
    assert invent_for_source(g, s) == []


def test_invent_rejects_destination_and_unknown(hospital_graph):
    g = hospital_graph
    with pytest.raises(NotASource):
        invent_for_source(g, label_id(g, "CMC"))
    with pytest.raises(UnknownNode):
        invent_for_source(g, 500)


def test_invent_requires_frozen():
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    with pytest.raises(GraphNotFrozen):
        invent_for_source(g, s)


def test_invent_all_hospital_weights(hospital_graph):
    g = hospital_graph
    by_label = {
        g.node(src).label: [(g.node(e.src).label, g.node(e.dst).label, e.weight)
                            for e in edges]
        for src, edges in invent_all(g).items()
    }
    assert by_label == {
        "Rumuomasi": [("CMC", "MC", 459)],
        "Runmuogba": [("PC", "SC", 8)],
        "Woji": [("CU", "PI", 494)],
        "Ogunabali": [("OC", "HC", 54)],
    }


def test_invent_all_no_sources():
    g = ConicGraph()
    g.add_node("d", NodeKind.DESTINATION, 1)
    g.freeze()
    assert invent_all(g) == {}


def test_policy_gate_suppresses_heavy_inventions(hospital_graph):
    g = hospital_graph
    gated = invent_all(g, PolicyThreshold(allowable=54))
    weights = {g.node(s).label: [e.weight for e in edges] for s, edges in gated.items()}
    assert weights == {
        "Rumuomasi": [], "Runmuogba": [8], "Woji": [], "Ogunabali": [54],
    }
    barely = invent_all(g, PolicyThreshold(allowable=1))
    assert all(edges == [] for edges in barely.values())


def test_policy_monotonicity():
    rng = random.Random(404)
    for _ in range(30):
        g = random_conic(rng)
        caps = sorted(rng.sample(range(1, 3000), 3))
        kept = [
            {(e.origin, e.src, e.dst) for edges in invent_all(g, PolicyThreshold(c)).values()
             for e in edges}
            for c in caps
        ]
        assert kept[0] <= kept[1] <= kept[2]


def test_policy_requires_positive_cap():
    with pytest.raises(ValueError):
        PolicyThreshold(0)


@pytest.mark.parametrize("cap", [0, -3, True, 2.5, Fraction(3, 2), "5"],
                         ids=["zero", "negative", "bool", "float", "fraction", "str"])
def test_policy_refuses_a_cap_that_is_not_a_positive_int(cap):
    # the pair walk compares weights with the cap: it must be an exact positive int
    with pytest.raises(ValueError) as err:
        PolicyThreshold(cap)
    assert str(err.value) == f"allowable must be positive, got {cap!r}"


def test_orientation_minimum_first():
    rng = random.Random(808)
    for _ in range(40):
        g = random_conic(rng)
        source_edges = {
            n.id: {e.dst: e.weight for e in g.out_edges(n.id)
                   if e.provenance is Provenance.ORIGINAL}
            for n in g.sources()
        }
        for src, edges in invent_all(g).items():
            for e in edges:
                w_from = source_edges[src][e.src]
                w_to = source_edges[src][e.dst]
                assert w_from < w_to  # points away from the pair minimum
                assert e.pair_weights == (w_from, w_to)
                assert w_from + e.weight == w_to


def test_pair_evaluation_count_is_destinations_minus_one(monkeypatch):
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    n = 9
    for j in range(n):
        d = g.add_node(f"d{j}", NodeKind.DESTINATION, j + 1)
        g.add_edge(s, d, 10 + 7 * j)
    g.freeze()
    calls = 0
    real = absolute_edge_difference

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(invention, "absolute_edge_difference", counting)
    edges = invent_for_source(g, s)
    assert calls == n - 1
    assert len(edges) == n - 1


@st.composite
def parallel_conic_graphs(draw) -> ConicGraph:
    """A matrix-like graph whose sources may hold parallel original edges."""
    n_src, n_dst = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    g = ConicGraph()
    sources = [g.add_node(f"s{i}", NodeKind.SOURCE, i) for i in range(n_src)]
    dests = [g.add_node(f"d{j}", NodeKind.DESTINATION, j + 1) for j in range(n_dst)]
    for src in sources:
        targets = draw(st.lists(st.sampled_from(dests), max_size=8))
        # add_edge keeps a source's weights distinct
        weights = draw(st.lists(st.integers(1, 60), min_size=len(targets),
                                max_size=len(targets), unique=True))
        for dst, weight in zip(targets, weights):
            g.add_edge(src, dst, weight)
    return g.freeze()


def _lightest_per_target(g: ConicGraph, origin: int) -> list:
    """origin's lightest edge to each target, in target-offset order."""
    lightest = {}
    for edge in g.out_edges(origin):  # a graph fresh from freeze() holds no derived edge
        if edge.dst not in lightest or edge.weight < lightest[edge.dst].weight:
            lightest[edge.dst] = edge
    return list(lightest.values())  # a dict keeps the offset order it first saw


@settings(max_examples=300)
@given(parallel_conic_graphs())
def test_every_invention_keeps_the_pair_walk_rules(g):
    for origin, inventions in invent_all(g).items():
        originals = _lightest_per_target(g, origin)
        pairs = list(zip(originals, originals[1:]))
        assert len(inventions) == len(pairs)
        for e, (a, b) in zip(inventions, pairs):
            lo, hi = e.pair_weights
            assert 0 < lo < hi and lo + e.weight == hi
            assert e.src != e.dst
            # the lightest edges of origin to two consecutive targets
            lighter, heavier = sorted((a, b), key=lambda edge: edge.weight)
            assert (lo, hi) == (lighter.weight, heavier.weight)
            assert (e.origin, e.src, e.dst) == (origin, lighter.dst, heavier.dst)


def _parallel_graph() -> tuple[ConicGraph, int, int, int]:
    """s reaches d by 3 and by 5, and e by 9."""
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    e = g.add_node("e", NodeKind.DESTINATION, 2)
    for dst, weight in ((d, 3), (d, 5), (e, 9)):
        g.add_edge(s, dst, weight)
    return g.freeze(), s, d, e


def _later_lighter_graph() -> ConicGraph:
    """s reaches d by 5 and then 3, and e by 2 and then 1: each run's later edge is lighter."""
    g = ConicGraph()
    s = g.add_node("s", NodeKind.SOURCE, 0)
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    e = g.add_node("e", NodeKind.DESTINATION, 2)
    for dst, weight in ((d, 5), (d, 3), (e, 2), (e, 1)):
        g.add_edge(s, dst, weight)
    return g.freeze()


def test_parallel_edges_to_one_node_invent_nothing_between_them():
    g, s, d, e = _parallel_graph()
    inventions = invent_for_source(g, s)
    # d's lightest edge, 3, stands for its run and pairs with e
    assert inventions == [InventedEdge(s, d, e, 6, (3, 9))]
    assert [(a.src_label, a.dst_label) for a in cmd_query(g, "s").invented_alternates] == [
        ("d", "e")]
    assert "d -> d" not in export_dot(g, invented=inventions)
    extended = g.extend([edge.as_edge() for edge in inventions])
    assert [(x.src, x.dst) for x in extended.edges if x.provenance is Provenance.INVENTED] == [
        (d, e)]


@settings(max_examples=300)
@given(parallel_conic_graphs())
@example(_later_lighter_graph())  # e -> d from (1, 3), where pairing in order took (2, 3)
def test_every_invention_pairs_the_distances_of_its_endpoints(g):
    for origin, inventions in invent_all(g).items():
        dist = shortest_paths(g, origin).dist
        for e in inventions:
            assert e.pair_weights == (dist[e.src], dist[e.dst])


def test_fitness_exact_match():
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    report = fitness(edge, HiddenPath(src=1, dst=2, true_weight=459), tolerance=0.1)
    assert report.absolute_error == 0
    assert report.relative_error == 0
    assert report.fit is True


def test_fitness_within_tolerance():
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    report = fitness(edge, HiddenPath(src=2, dst=1, true_weight=500), tolerance=0.1)
    assert report.absolute_error == 41
    assert report.relative_error == Fraction(41, 500) == Fraction("0.082")
    assert report.fit is True


def test_fitness_poor_match():
    edge = InventedEdge(origin=0, src=1, dst=2, weight=8, pair_weights=(374, 382))
    report = fitness(edge, HiddenPath(src=1, dst=2, true_weight=100), tolerance="1/10")
    assert report.relative_error == Fraction(92, 100)
    assert report.fit is False


# relative error 41/500 = 0.082 against each text; None: outside the grammar
@pytest.mark.parametrize("text, fit", [
    ("1/10", True), ("0.1", True), ("1e-1", True), (".5", True), ("5.", True),
    ("1e-9999", False),
    ("1_0", None), (" 0.1", None), ("+0.1", None), ("\u0660.\u0661", None), ("-1", None),
    ("1/0", None), ("9" * 4301 + "/1", None),
], ids=["ratio", "decimal", "exponent", "leading_point", "trailing_point", "tiny",
        "underscore", "space", "plus", "arabic_digits", "negative", "zero_denominator",
        "past_int_limit"])
def test_a_str_tolerance_is_read_by_one_grammar(text, fit):
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    hidden = HiddenPath(src=1, dst=2, true_weight=500)
    if fit is None:
        with pytest.raises(ValueError):
            fitness(edge, hidden, text)
    else:
        assert fitness(edge, hidden, text).fit is fit


# an exact match against each numeric tolerance; None: refused
@pytest.mark.parametrize("tolerance, fit", [
    (0, True), (0.0, True), (Fraction(0), True), ("0", True), (0.1, True),
    (-1, None), (-0.1, None), (Fraction(-1, 10), None), (True, None), (False, None),
    (float("nan"), None), (float("inf"), None), (float("-inf"), None),
    (Decimal("NaN"), None), (Decimal("Infinity"), None),
], ids=["int_zero", "float_zero", "fraction_zero", "str_zero", "float",
        "negative_int", "negative_float", "negative_fraction", "true", "false",
        "float_nan", "float_inf", "float_minus_inf", "decimal_nan", "decimal_infinity"])
def test_a_numeric_tolerance_is_neither_negative_nor_a_bool(tolerance, fit):
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    hidden = HiddenPath(src=1, dst=2, true_weight=459)
    if fit is None:
        with pytest.raises(ValueError) as err:
            fitness(edge, hidden, tolerance)
        assert str(err.value) == f"not an unsigned decimal or ratio: {tolerance!r}"
    else:
        assert fitness(edge, hidden, tolerance).fit is fit


@st.composite
def errors_at_a_tolerance(draw) -> tuple:
    """A tolerance p/q in one of its forms, a true weight m*q, an absolute
    error of m*p (exactly the tolerance), one more or one less, and whether
    that error is fit."""
    form = draw(st.sampled_from(["fraction", "int", "float", "ratio", "decimal", "exponent"]))
    p, k = draw(st.integers(0, 60)), draw(st.integers(0, 3))
    q = 1 if form == "int" else 10 ** k if form in ("float", "decimal", "exponent") \
        else draw(st.integers(1, 60))
    tolerance = {"fraction": Fraction(p, q), "int": p, "float": p / q, "ratio": f"{p}/{q}",
                 "decimal": repr(p / q), "exponent": f"{p}e-{k}"}[form]
    m, step = draw(st.integers(1, 30)), draw(st.sampled_from((-1, 0, 1)))
    return tolerance, m * q, max(0, m * p + step), step <= 0


@settings(max_examples=300)
@given(case=errors_at_a_tolerance(), below=st.booleans())
def test_fit_is_the_exact_comparison_with_the_tolerance(case, below):
    tolerance, true, error, fit = case
    weight = true - error if below and error < true else true + error
    report = fitness(InventedEdge(0, 1, 2, weight, (1, 1 + weight)),
                     HiddenPath(1, 2, true), tolerance)
    assert report.absolute_error == error
    assert report.fit is (Fraction(error, true) <= invention._as_fraction(tolerance))
    assert report.fit is fit


def test_a_tolerance_outside_the_grammar_raises_only_at_a_graded_alternate(hospital_graph):
    hidden = parse_hidden_paths(HIDDEN_PATH.read_text(encoding="utf-8"), hospital_graph)
    # Ogunabali's one alternate, OC -> HC, has no hidden path; Rumuomasi's has one
    for result in (cmd_query(hospital_graph, "Ogunabali", hidden=hidden, tolerance="bogus"),
                   cmd_query(hospital_graph, "Rumuomasi", tolerance="bogus"),
                   cmd_query(hospital_graph, "Rumuomasi", invent=False, hidden=hidden,
                             tolerance="bogus")):
        assert [a.fitness for a in result.invented_alternates] in ([], [None])
    with pytest.raises(ValueError) as err:
        cmd_query(hospital_graph, "Rumuomasi", hidden=hidden, tolerance="bogus")
    assert str(err.value) == "not an unsigned decimal or ratio: 'bogus'"


@pytest.mark.parametrize("weight", [0, -5, True], ids=["zero", "negative", "bool"])
def test_hidden_path_refuses_a_weight_that_is_not_a_positive_int(weight):
    # fitness divides by the weight: 0 would raise, -5 would grade as fit
    with pytest.raises(ValueError) as err:
        HiddenPath(src=1, dst=2, true_weight=weight)
    assert str(err.value) == f"true_weight must be positive, got {weight!r}"


_BUILDS = {  # each builds a record of the given field values
    "position": lambda record, values: record(*values),
    "keyword": lambda record, values: record(**dict(zip(record._fields, values))),
    "_make": lambda record, values: record._make(iter(values)),
    # from a valid record, the last field replaced
    "_replace": lambda record, values: record(*values[:-1], 1)._replace(
        **{record._fields[-1]: values[-1]}),
}


@pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
@pytest.mark.parametrize("record, values, bad", [
    *[(HiddenPath, (1, 2, 450), bad) for bad in (0, -1, True, 1.0)],
    *[(PolicyThreshold, (54,), bad) for bad in (0, True, 2.5)],
])
def test_a_checked_record_cannot_be_built_around_its_check(build, record, values, bad):
    assert build(record, values) == values
    with pytest.raises(ValueError) as err:
        build(record, (*values[:-1], bad))
    assert str(err.value) == f"{record._fields[-1]} must be positive, got {bad!r}"


@pytest.mark.parametrize("record, values", [(HiddenPath, (1, 2)), (PolicyThreshold, ())])
def test_a_checked_record_names_itself_in_a_wrong_call(record, values):
    with pytest.raises(TypeError, match=rf"^{record.__name__}\.__new__\(\) missing 1 required"):
        record(*values)


def test_fitness_endpoint_mismatch():
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    with pytest.raises(EndpointMismatch):
        fitness(edge, HiddenPath(src=1, dst=3, true_weight=459))
