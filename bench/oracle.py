"""Output oracles built from the generators' own records.

Nothing here calls the engine: expected answers come from the matrix or
DAG the generator wrote, by the rules the paper states. Each ``check_*``
returns ``None`` when the output agrees, else a one-line description of
the first disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from gen import Dag, Matrix, inventions

TOLERANCE = Fraction(1, 10)  # the CLI's and cmd_query's default


def expected_query(m: Matrix, hidden: dict, source: int) -> dict:
    """The CLI's JSON payload for one source: its minimum out-edge is the
    best path, its inventions are the alternates, graded against the
    hidden path joining the same pair if there is one (``hidden`` as
    ``gen.hidden_paths`` returns it)."""
    row = m.rows[source]
    best = None
    if row:
        col, weight = min(row, key=lambda cell: cell[1])
        best = {"destination": m.dest_labels[col], "distance": weight,
                "path": [m.source_labels[source], m.dest_labels[col]]}
    alternates = []
    for near, far, weight, pair in inventions(m, source):
        grade = None
        path = hidden.get(frozenset((near, far)))
        if path is not None:
            true = path[2]
            error = abs(weight - true)
            grade = {"invented_weight": weight, "hidden_weight": true,
                     "absolute_error": error,
                     "relative_error": float(Fraction(error, true)),
                     "fit": Fraction(error, true) <= TOLERANCE}
        alternates.append({"from": m.dest_labels[near], "to": m.dest_labels[far],
                           "weight": weight, "pair_weights": list(pair),
                           "fitness": grade})
    return {"source": m.source_labels[source], "best": best,
            "invented_alternates": alternates}


def expected_inventions(m: Matrix) -> dict[str, list[list]]:
    """``{source label: [[from, to, weight, [lo, hi]], ...]}`` for every source."""
    return {
        m.source_labels[s]: [[m.dest_labels[near], m.dest_labels[far], weight, list(pair)]
                             for near, far, weight, pair in inventions(m, s)]
        for s in range(len(m.rows))
    }


def check_invention_algebra(got: dict[str, list[list]]) -> str | None:
    """Every invention sits on the lower triangle bound: lo + weight == hi."""
    for source, edges in got.items():
        for frm, to, weight, (lo, hi) in edges:
            if not (0 < lo < hi and lo + weight == hi):
                return f"{source}: {frm}->{to} weight {weight} breaks {lo} + w = {hi}"
    return None


def check_equal(what: str, got, want) -> str | None:
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{what}: {len(got)} entries, expected {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"{what}[{i}]: got {g!r:.200}, expected {w!r:.200}"
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{what}: keys differ ({len(got)} vs {len(want)} expected)"
        for key in want:
            if got[key] != want[key]:
                return f"{what}[{key!r}]: got {got[key]!r:.200}, expected {want[key]!r:.200}"
    return f"{what}: got {got!r:.200}, expected {want!r:.200}"


def check_inventions(m: Matrix, got: dict[str, list[list]]) -> str | None:
    return check_invention_algebra(got) or check_equal(
        "inventions", got, expected_inventions(m))


def dag_distances(d: Dag, source: int) -> list[int | float]:
    """Single-source distances by one pass in id order, which is a
    topological order because every edge runs to a larger id."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(d.n)]
    for tail, head, weight in d.edges:
        out[tail].append((head, weight))
    dist: list[int | float] = [inf] * d.n
    dist[source] = 0
    for node in range(source, d.n):
        if dist[node] == inf:
            continue
        for head, weight in out[node]:
            if dist[node] + weight < dist[head]:
                dist[head] = dist[node] + weight
    return dist


def check_distances(what: str, got: dict[int, int | float],
                    want: list[int | float]) -> str | None:
    """``got`` maps node id to distance; a missing node counts as unreachable."""
    for node, expected in enumerate(want):
        if got.get(node, inf) != expected:
            return f"{what}: node {node} at {got.get(node, inf)}, expected {expected}"
    return None


def check_dot(text: str, nodes: int, edges: int, invented: int) -> str | None:
    """A digraph with one statement per node, edge and invention."""
    lines = text.splitlines()
    if not lines or lines[0] != "digraph conic {" or lines[-1] != "}":
        return "dot: not one 'digraph conic { ... }' block"
    want = 2 + nodes + edges + invented + 1
    if len(lines) != want:
        return f"dot: {len(lines)} lines, expected {want}"
    arrows = sum(1 for line in lines if " -> " in line)
    dotted = sum(1 for line in lines if line.endswith("style=dotted];"))
    if arrows != edges + invented or dotted != invented:
        return f"dot: {arrows} edges ({dotted} dotted), expected {edges + invented} ({invented})"
    return None
