"""Deterministic DOT rendering of a graph and its derived edges.

Original edges draw solid, shortcuts (an overlay's extended graph) dashed,
invented edges dotted; every edge carries its weight as a label. Identical
inputs yield byte-identical text.
"""

from __future__ import annotations

import re
from typing import Iterable

from .graph import ConicGraph, NodeKind, Provenance
from .invention import InventedEdge

_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# DOT keywords are case-insensitive and cannot name a node unquoted
_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})
# what follows an edge's weight label
_STYLE = {
    Provenance.ORIGINAL: "",
    Provenance.SHORTCUT: ", style=dashed",
    Provenance.INVENTED: ", style=dotted",
}
_SHAPE = {NodeKind.SOURCE: "box", NodeKind.DESTINATION: "ellipse"}


def _dot_id(label: str) -> str:
    if _BARE_ID.fullmatch(label) and label.lower() not in _KEYWORDS:
        return label
    return '"' + label.translate(_ESCAPES) + '"'


def export_dot(graph: ConicGraph, *, invented: Iterable[InventedEdge] | None = None) -> str:
    """Render the graph, its shortcuts included, plus optional inventions as DOT."""
    if graph.node_count == 0:  # an invention joins two of the graph's nodes
        return "digraph conic {}\n"
    lines = ["digraph conic {", "  rankdir=LR;"]
    label = [_dot_id(node.label) for node in graph.nodes]  # by node id
    lines += [f"  {text} [shape={_SHAPE[node.kind]}];" for text, node in zip(label, graph.nodes)]
    # every edge, in insertion order; a log entry's style is looked up once
    lines += [f'  {label[src]} -> {label[dst]} [label="{weight}"{style}];'
              for src, pairs, provenance in graph._log for style in [_STYLE[provenance]]
              for dst, weight in pairs]
    dotted = _STYLE[Provenance.INVENTED]
    for edge in invented or ():
        lines.append(f'  {label[edge.src]} -> {label[edge.dst]} [label="{edge.weight}"{dotted}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
