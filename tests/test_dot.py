"""DOT rendering: styles per provenance, determinism, empty skeleton."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from conicroute.contraction import build_hierarchy
from conicroute.dot import export_dot
from conicroute.graph import ConicGraph, Edge, NodeKind, Provenance
from conicroute.invention import InventedEdge, invent_all

from conftest import graph_from_edges


def test_dot_contains_invented_edge_dotted(hospital_graph):
    invented = [e for edges in invent_all(hospital_graph).values() for e in edges]
    text = export_dot(hospital_graph, invented=invented)
    assert 'CMC -> MC [label="459", style=dotted];' in text
    assert 'Rumuomasi -> CMC [label="312"];' in text
    assert "Rumuomasi [shape=box];" in text
    assert "CMC [shape=ellipse];" in text


def test_dot_shortcuts_drawn_dashed():
    g = graph_from_edges(3, [(0, 1, 2), (1, 2, 3)], ["a", "b", "c"])
    text = export_dot(build_hierarchy(g, [0, 1, 2]).extended_graph())
    assert text.endswith('  b -> c [label="3"];\n  a -> c [label="5", style=dashed];\n}\n')


def test_dot_empty_graph_skeleton():
    for invented in (None, [], iter([])):
        assert export_dot(ConicGraph().freeze(), invented=invented) == "digraph conic {}\n"


def test_dot_is_deterministic(hospital_graph):
    invented = [e for edges in invent_all(hospital_graph).values() for e in edges]
    first = export_dot(hospital_graph, invented=invented)
    second = export_dot(hospital_graph, invented=invented)
    assert first == second


def test_dot_quotes_awkward_labels():
    g = ConicGraph()
    a = g.add_node("new town", NodeKind.SOURCE, 0)
    b = g.add_node("St. Mary's", NodeKind.DESTINATION, 1)
    g.add_edge(a, b, 9)
    g.add_node("node", NodeKind.DESTINATION, 2)
    g.add_node("a\\", NodeKind.DESTINATION, 3)
    g.add_node("two\nlines", NodeKind.DESTINATION, 4)
    g.freeze()
    text = export_dot(g)
    assert '"new town" -> "St. Mary\'s" [label="9"];' in text
    assert '  "node" [shape=ellipse];' in text
    assert '  "a\\\\" [shape=ellipse];' in text
    assert '  "two\\nlines" [shape=ellipse];' in text


_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r"}


def read_dot_id(text: str) -> tuple[str, str]:
    """Read one DOT ID off the front of text: (the ID's value, the rest)."""
    bare = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text)
    if bare:
        assert bare.group().lower() not in _KEYWORDS, f"bare keyword {bare.group()!r}"
        return bare.group(), text[bare.end():]
    assert text.startswith('"'), f"no ID at {text!r}"
    value, i = [], 1
    while text[i] != '"':
        if text[i] == "\\":
            i += 1
            value.append(_UNESCAPE[text[i]])
        else:
            value.append(text[i])
        i += 1
    return "".join(value), text[i + 1:]


LABELS = st.text(min_size=1) | st.sampled_from(["node", "Edge", "GRAPH", "strict"])


@settings(max_examples=200)
@given(labels=st.lists(LABELS, min_size=1, max_size=6, unique=True))
def test_every_node_statement_reads_back_as_its_label(labels):
    g = ConicGraph()
    for offset, label in enumerate(labels):
        g.add_node(label, NodeKind.DESTINATION, offset)
    lines = export_dot(g.freeze()).split("\n")
    assert lines[:2] == ["digraph conic {", "  rankdir=LR;"]
    assert lines[2 + len(labels):] == ["}", ""]  # no label broke a line
    for label, line in zip(labels, lines[2:]):
        assert line.startswith("  ")
        value, rest = read_dot_id(line[2:])
        assert (value, rest) == (label, " [shape=ellipse];")


# what follows the weight label, by provenance
STYLE = {"original": "", "shortcut": ", style=dashed", "invented": ", style=dotted"}


@settings(max_examples=150)
@given(labels=st.lists(LABELS, min_size=2, max_size=6, unique=True), data=st.data())
def test_every_edge_statement_reads_back_as_its_endpoints_and_style(labels, data):
    n = len(labels)
    forward = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
        lambda pair: pair[0] < pair[1])
    g = ConicGraph()
    for offset, label in enumerate(labels):
        g.add_node(label, NodeKind.SOURCE, offset)
    for weight, (src, dst) in enumerate(data.draw(st.lists(forward, max_size=8)), start=1):
        g.add_edge(src, dst, weight)  # weights are distinct, so every edge is legal
    derived = [Edge(src, dst, 100 + i, provenance)
               for i, ((src, dst), provenance) in enumerate(data.draw(st.lists(
                   st.tuples(forward, st.sampled_from([Provenance.SHORTCUT,
                                                       Provenance.INVENTED])),
                   max_size=4)))]
    graph = g.freeze().extend(derived)  # its SHORTCUT edges are how an overlay draws
    invented = [InventedEdge(origin=src, src=src, dst=dst, weight=300 + i,
                             pair_weights=(1, 301 + i))
                for i, (src, dst) in enumerate(data.draw(st.lists(forward, max_size=3)))]
    expected = (
        [(labels[e.src], labels[e.dst], e.weight, e.provenance.value) for e in graph.edges]
        + [(labels[e.src], labels[e.dst], e.weight, "invented") for e in invented]
    )
    lines = export_dot(graph, invented=invented).split("\n")
    assert lines[2 + n + len(expected):] == ["}", ""]  # no label broke a line
    for (src, dst, weight, provenance), line in zip(expected, lines[2 + n:]):
        assert line.startswith("  ")
        tail, rest = read_dot_id(line[2:])
        assert (tail, rest[:4]) == (src, " -> ")
        head, rest = read_dot_id(rest[4:])
        assert (head, rest) == (dst, f' [label="{weight}"{STYLE[provenance]}];')
