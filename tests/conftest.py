"""Shared fixtures: the shipped hospital matrix, random graph builders,
and brute-force oracles that stay independent of the engine under test."""

from __future__ import annotations

import gc
import random
from collections import defaultdict
from math import inf
from pathlib import Path

import pytest
from hypothesis import settings

from conicroute.graph import ConicGraph, NodeKind
from conicroute.matrix_io import parse_build_matrix, to_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
MATRIX_PATH = DATA_DIR / "hospital_matrix.csv"
HIDDEN_PATH = DATA_DIR / "hidden_paths.csv"

# tier-1 stays deterministic: fixed example streams, no example database,
# and no per-example deadline on a slow or busy host; tests set only
# max_examples
settings.register_profile("conicroute", derandomize=True, database=None, deadline=None)
settings.load_profile("conicroute")


@pytest.fixture(autouse=True)
def _collector_given_back():
    """Fail a test that leaves the cyclic collector disabled, so that a pause
    the engine does not give back shows in the test that leaked it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")


@pytest.fixture(scope="session")
def matrix_text() -> str:
    return MATRIX_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def hospital_graph(matrix_text) -> ConicGraph:
    return to_graph(parse_build_matrix(matrix_text))


def label_id(graph: ConicGraph, label: str) -> int:
    return graph.node_by_label(label).id


def graph_from_edges(n: int, edges: list[tuple[int, int, int]],
                     labels: list[str] | None = None) -> ConicGraph:
    """Ad-hoc DAG builder; node i gets offset i and kind SOURCE."""
    g = ConicGraph()
    for i in range(n):
        g.add_node(labels[i] if labels else f"n{i}", NodeKind.SOURCE, i)
    for src, dst, weight in edges:
        g.add_edge(src, dst, weight)
    return g.freeze()


def random_dag(rng: random.Random, max_nodes: int = 12,
               max_weight: int = 1000, density: float = 0.4) -> ConicGraph:
    """Random DAG with forward edges only and distinct weights per source."""
    n = rng.randint(2, max_nodes)
    g = ConicGraph()
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.SOURCE, i)
    for i in range(n):
        targets = [j for j in range(i + 1, n) if rng.random() < density]
        weights = rng.sample(range(1, max_weight + 1), len(targets))
        for j, w in zip(targets, weights):
            g.add_edge(i, j, w)
    return g.freeze()


def random_conic(rng: random.Random, max_sources: int = 4,
                 max_destinations: int = 7) -> ConicGraph:
    """Random two-layer source/destination graph like a transition matrix."""
    n_src = rng.randint(1, max_sources)
    n_dst = rng.randint(1, max_destinations)
    g = ConicGraph()
    src_ids = [g.add_node(f"s{i}", NodeKind.SOURCE, i) for i in range(n_src)]
    dst_ids = [g.add_node(f"d{j}", NodeKind.DESTINATION, j + 1) for j in range(n_dst)]
    for src in src_ids:
        chosen = [d for d in dst_ids if rng.random() < 0.6]
        weights = rng.sample(range(1, 2000), len(chosen))
        for dst, w in zip(chosen, weights):
            g.add_edge(src, dst, w)
    return g.freeze()


# --- oracles -----------------------------------------------------------------

def _adjacency(graph: ConicGraph, include_derived: bool = True):
    adj = defaultdict(list)
    for edge in graph.edges:
        if include_derived or edge.provenance.value == "original":
            adj[edge.src].append((edge.dst, edge.weight))
    return adj


def brute_force_distances(graph: ConicGraph, source: int,
                          include_derived: bool = True) -> dict[int, int | float]:
    """Minimum over an exhaustive enumeration of all simple paths."""
    adj = _adjacency(graph, include_derived)
    best: dict[int, int | float] = {n.id: inf for n in graph.nodes}
    best[source] = 0

    def walk(node: int, cost: int, visited: frozenset[int]) -> None:
        for nxt, weight in adj[node]:
            if nxt in visited:
                continue
            total = cost + weight
            if total < best[nxt]:
                best[nxt] = total
            walk(nxt, total, visited | {nxt})

    walk(source, 0, frozenset((source,)))
    return best


def min_path_avoiding(graph: ConicGraph, start: int, goal: int,
                      banned: int) -> int | float:
    """Cheapest start -> goal path that never visits the banned node."""
    adj = _adjacency(graph)
    best = inf

    def walk(node: int, cost: int, visited: frozenset[int]) -> None:
        nonlocal best
        if node == goal:
            best = min(best, cost)
            return
        for nxt, weight in adj[node]:
            if nxt == banned or nxt in visited:
                continue
            walk(nxt, cost + weight, visited | {nxt})

    if start != banned:
        walk(start, 0, frozenset((start,)))
    return best
