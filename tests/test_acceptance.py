"""Acceptance criteria, one test per criterion at its stated tolerance.

Run ``pytest -v -s tests/test_acceptance.py`` to get one pass/fail line
per criterion (the [criterion N] prints require -s; -v shows the verdict
per test either way).
"""

from __future__ import annotations

import json
import random
import time
import timeit
from fractions import Fraction
from math import inf

import conicroute.invention as invention
from conicroute.cli import main
from conicroute.contraction import build_hierarchy, contract_node
from conicroute.dijkstra import shortest_paths
from conicroute.graph import ConicGraph, NodeKind
from conicroute.invention import (
    HiddenPath,
    InventedEdge,
    absolute_edge_difference,
    fitness,
    invent_all,
    invent_for_source,
    triangle_bounds,
)

from conftest import (
    MATRIX_PATH,
    brute_force_distances,
    graph_from_edges,
    label_id,
    min_path_avoiding,
    random_dag,
)


def report(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS — {text}")


def _best_time(fn, repeats: int = 5) -> float:
    # timeit disables GC while measuring, the standard way to time the
    # algorithm rather than allocator pauses
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def test_criterion_1_worked_example_exact_and_fast(hospital_graph):
    g = hospital_graph
    rum = label_id(g, "Rumuomasi")
    state = shortest_paths(g, rum)
    cmc, mc = label_id(g, "CMC"), label_id(g, "MC")
    assert state.dist[cmc] == 312
    assert min(w for _, w in g.neighbors_ascending(rum)) == 312

    (edge,) = invent_for_source(g, rum)
    assert (edge.src, edge.dst, edge.weight) == (cmc, mc, 459)
    assert edge.weight == abs(312 - 771)

    def select_and_invent():
        shortest_paths(g, rum)
        invent_for_source(g, rum)

    elapsed = _best_time(select_and_invent)
    assert elapsed < 0.001, f"selection + invention took {elapsed * 1e3:.3f} ms"
    report(1, f"minimum 312 -> CMC, invented CMC->MC = 459 in {elapsed * 1e6:.1f} µs")


def test_criterion_2_full_matrix_inventions(hospital_graph):
    g = hospital_graph
    got = {
        g.node(src).label: [(g.node(e.src).label, g.node(e.dst).label, e.weight)
                            for e in edges]
        for src, edges in invent_all(g).items()
    }
    assert got == {
        "Rumuomasi": [("CMC", "MC", 459)],
        "Runmuogba": [("PC", "SC", 8)],
        "Woji": [("CU", "PI", 494)],
        "Ogunabali": [("OC", "HC", 54)],
    }
    report(2, "all four sources invent 459 / 8 / 494 / 54, minimum destination first")


def test_criterion_3_dijkstra_matches_enumeration():
    rng = random.Random(20260809)
    start = time.perf_counter()
    runs = 0
    for _ in range(200):
        g = random_dag(rng, max_nodes=12, max_weight=1000)
        source = rng.randrange(g.node_count)
        assert shortest_paths(g, source).dist == brute_force_distances(g, source)
        runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 200
    assert elapsed < 10, f"took {elapsed:.2f} s"
    report(3, f"{runs} random DAGs matched exhaustive enumeration in {elapsed:.2f} s")


def test_criterion_4_overlay_preserves_distances():
    rng = random.Random(1083)
    start = time.perf_counter()
    graphs = 0
    pairs = 0
    for _ in range(50):
        g = random_dag(rng, max_nodes=50, density=0.15)
        extended = build_hierarchy(g).extended_graph()
        for source in range(g.node_count):
            base = shortest_paths(g, source)
            merged = shortest_paths(extended, source, use_invented=True)
            assert merged.dist == base.dist
            pairs += sum(1 for d in base.dist.values() if d != inf)
        graphs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.2f} s"
    report(4, f"{graphs} DAGs, {pairs} reachable pairs preserved in {elapsed:.2f} s")


def test_criterion_5_witnesses_suppress_shortcuts():
    # the detour pattern: v->u->w costs 4, the witness v->x->y->w costs 3
    g = graph_from_edges(5, [(0, 3, 2), (3, 4, 2), (0, 1, 1), (1, 2, 1), (2, 4, 1)],
                         ["v", "x", "y", "u", "w"])
    assert min_path_avoiding(g, 0, 4, banned=3) == 3 <= 4
    assert contract_node(g, 3) == []

    rng = random.Random(3434)
    checked = 0
    for _ in range(120):
        small = random_dag(rng, max_nodes=8, max_weight=12, density=0.7)
        u = rng.randrange(small.node_count)
        emitted = {(s.src, s.dst) for s in contract_node(small, u)}
        in_w = {e.src: e.weight for e in small.edges if e.dst == u}
        out_w = {e.dst: e.weight for e in small.edges if e.src == u}
        for v, win in in_w.items():
            for w, wout in out_w.items():
                if v == w or not (v < u < w):
                    continue
                if min_path_avoiding(small, v, w, banned=u) <= win + wout:
                    assert (v, w) not in emitted
                    checked += 1
    report(5, f"no shortcut beside a witness; {checked} witnessed pairs verified")


def test_criterion_6_aed_algebra():
    rng = random.Random(459)
    failures = 0
    for _ in range(1000):
        a, b = rng.randint(1, 10**9), rng.randint(1, 10**9)
        aed = absolute_edge_difference(a, b)
        upper, lower = triangle_bounds(a, b)
        ok = (
            min(a, b) + aed == max(a, b)
            and aed == absolute_edge_difference(b, a)
            and lower == aed <= upper
        )
        failures += 0 if ok else 1
    assert failures == 0
    report(6, "1000 random pairs: min + AED = max, symmetric, inside triangle bounds")


def test_criterion_7_invention_is_linear(monkeypatch):
    def fan_out(n: int) -> ConicGraph:
        g = ConicGraph()
        s = g.add_node("s", NodeKind.SOURCE, 0)
        rng = random.Random(n)
        weights = rng.sample(range(1, 10 * n), n)
        for j, w in enumerate(weights):
            d = g.add_node(f"d{j}", NodeKind.DESTINATION, j + 1)
            g.add_edge(s, d, w)
        return g.freeze()

    counted = fan_out(1000)
    calls = 0
    real = absolute_edge_difference

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(invention, "absolute_edge_difference", counting)
    invent_for_source(counted, 0)
    monkeypatch.undo()
    assert calls == 1000 - 1

    graphs = {n: fan_out(n) for n in (10**3, 10**4, 10**5)}
    for g in graphs.values():
        invent_for_source(g, 0)  # warm the adjacency view
    # the sizes take turns, so a change of host speed mid-run reaches every
    # size's best-of-7 alike instead of doubling one ratio
    times = dict.fromkeys(graphs, inf)
    for _ in range(7):
        for n, g in graphs.items():
            times[n] = min(times[n], _best_time(lambda: invent_for_source(g, 0), repeats=1))
    ratio_a = times[10**4] / times[10**3]
    ratio_b = times[10**5] / times[10**4]
    assert ratio_a < 20, f"t(1e4)/t(1e3) = {ratio_a:.1f}"
    assert ratio_b < 20, f"t(1e5)/t(1e4) = {ratio_b:.1f}"
    report(7, f"999 pair evaluations for 1000 destinations; "
              f"time ratios {ratio_a:.1f} and {ratio_b:.1f} (< 20)")


def test_criterion_8_fitness_grading():
    edge = InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))
    exact = fitness(edge, HiddenPath(src=1, dst=2, true_weight=459), tolerance=0.1)
    assert exact.absolute_error == 0
    assert exact.relative_error == 0
    assert exact.fit is True

    near = fitness(edge, HiddenPath(src=1, dst=2, true_weight=500), tolerance=0.1)
    assert near.absolute_error == 41
    assert near.relative_error == Fraction(82, 1000)
    assert near.fit is True
    report(8, "hidden=AED gives error 0; 459 vs 500 gives 0.082 <= 0.1, fit")


def test_criterion_9_cli_end_to_end(capsys):
    argv = ["query", str(MATRIX_PATH), "--source", "Rumuomasi"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second

    payload = json.loads(first)
    assert payload["best"]["distance"] == 312
    assert payload["invented_alternates"][0]["weight"] == 459
    report(9, "query --source Rumuomasi: best 312, alternate 459, byte-identical runs")
