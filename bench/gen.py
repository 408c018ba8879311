"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns both the text or
edge list handed to the engine and the generator's own record of what it
wrote. The oracles in ``oracle.py`` check the engine's outputs against
that record, never against the engine itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_WEIGHT = 100_000


@dataclass(frozen=True)
class Matrix:
    """A source x destination matrix as the generator wrote it.

    ``rows[i]`` lists the populated cells of source ``i`` as
    ``(destination index, weight)`` in ascending destination offset.
    Source ``i`` sits at offset ``i``, destination ``j`` at offset ``j + 1``.
    """

    source_labels: tuple[str, ...]
    dest_labels: tuple[str, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.rows)


@dataclass(frozen=True)
class Dag:
    """A DAG over nodes ``0..n-1`` with forward edges ``(tail, head, weight)``
    listed in the shuffled order in which they are inserted."""

    n: int
    edges: tuple[tuple[int, int, int], ...]


def matrix(rng: random.Random, sources: int, dests: int, fanout: int) -> Matrix:
    """Each source gets ``fanout`` random destinations with distinct weights."""
    width = len(str(max(sources, dests)))
    rows = []
    for _ in range(sources):
        cols = sorted(rng.sample(range(dests), fanout))
        weights = rng.sample(range(1, MAX_WEIGHT + 1), fanout)
        rows.append(tuple(zip(cols, weights)))
    return Matrix(
        tuple(f"s{i:0{width}d}" for i in range(sources)),
        tuple(f"d{j:0{width}d}" for j in range(dests)),
        tuple(rows),
    )


def matrix_csv(m: Matrix) -> str:
    """Build-matrix CSV text (LF line ends, empty cell = no edge)."""
    lines = [
        "destinations," + ",".join(m.dest_labels),
        "offsets," + ",".join(str(j + 1) for j in range(len(m.dest_labels))),
    ]
    blank = [""] * len(m.dest_labels)
    for i, (label, row) in enumerate(zip(m.source_labels, m.rows)):
        cells = list(blank)
        for col, weight in row:
            cells[col] = str(weight)
        lines.append(f"{label},{i}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def inventions(m: Matrix, source: int) -> list[tuple[int, int, int, tuple[int, int]]]:
    """The inventions of one source by the paper's rule, as
    ``(near destination, far destination, weight, (lo, hi))``.

    Consecutive populated cells (in offset order) form a pair; the
    invention runs from the destination with the smaller weight to the
    other and weighs the difference, so ``lo + weight == hi``.
    """
    out = []
    row = m.rows[source]
    for (c1, w1), (c2, w2) in zip(row, row[1:]):
        if w1 == w2:
            continue
        near, far = (c1, c2) if w1 < w2 else (c2, c1)
        lo, hi = sorted((w1, w2))
        out.append((near, far, hi - lo, (lo, hi)))
    return out


def hidden_paths(rng: random.Random, m: Matrix, matched: int,
                 unmatched: int) -> dict[frozenset[int], tuple[int, int, int]]:
    """Hidden paths keyed by their unordered destination pair.

    ``matched`` rows join the two ends of a real invention and carry its
    weight perturbed by up to +-20%; ``unmatched`` rows join destination
    pairs that no source invents. Each pair appears once. Values are
    ``(from, to, true_weight)`` in destination indices.
    """
    invented: dict[frozenset[int], int] = {}
    for source in range(len(m.rows)):
        for near, far, weight, _ in inventions(m, source):
            invented.setdefault(frozenset((near, far)), weight)
    chosen = rng.sample(sorted(invented, key=sorted), min(matched, len(invented)))
    paths: dict[frozenset[int], tuple[int, int, int]] = {}
    for pair in chosen:
        a, b = sorted(pair)
        if rng.random() < 0.5:
            a, b = b, a
        true = max(1, round(invented[pair] * (1 + rng.uniform(-0.2, 0.2))))
        paths[pair] = (a, b, true)
    dests = len(m.dest_labels)
    while len(paths) < len(chosen) + unmatched:
        a, b = rng.sample(range(dests), 2)
        pair = frozenset((a, b))
        if pair not in invented and pair not in paths:
            paths[pair] = (a, b, rng.randint(1, MAX_WEIGHT))
    return paths


def hidden_csv(m: Matrix, paths: dict[frozenset[int], tuple[int, int, int]]) -> str:
    lines = ["from,to,true_weight"]
    for a, b, true in paths.values():
        lines.append(f"{m.dest_labels[a]},{m.dest_labels[b]},{true}")
    return "\n".join(lines) + "\n"


def dag(rng: random.Random, n: int, edges: int, reach: int) -> Dag:
    """Random DAG on ``n`` nodes: ``edges`` distinct forward edges, each
    head at most ``reach`` ids past its tail, with distinct weights per
    tail. The edge list is shuffled so that insertion order is not
    topological and the cycle guard has real searching to do."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < edges:
        tail = rng.randrange(n - 1)
        pairs.add((tail, rng.randint(tail + 1, min(n - 1, tail + reach))))
    by_tail: dict[int, list[int]] = {}
    for tail, head in sorted(pairs):
        by_tail.setdefault(tail, []).append(head)
    out = []
    for tail, heads in by_tail.items():
        for head, weight in zip(heads, rng.sample(range(1, 1000), len(heads))):
            out.append((tail, head, weight))
    rng.shuffle(out)
    return Dag(n, tuple(out))


def dag_as_matrix(d: Dag, tail_prefix: str = "t", head_prefix: str = "h") -> Matrix:
    """The DAG split into a bipartite matrix: row ``i`` holds the out-edges
    of node ``i``, column ``j`` stands for node ``j`` as a head. With equal
    prefixes the labels name the DAG's own nodes."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
    for tail, head, weight in d.edges:
        rows[tail].append((head, weight))
    width = len(str(d.n))
    return Matrix(
        tuple(f"{tail_prefix}{i:0{width}d}" for i in range(d.n)),
        tuple(f"{head_prefix}{j:0{width}d}" for j in range(d.n)),
        tuple(tuple(sorted(row)) for row in rows),
    )
