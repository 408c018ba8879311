"""The CLI's renderers write exactly what the payload dicts they replaced
would have written.

Each ``*_payload`` and ``*_table`` function below is the builder the CLI used
before its renderers read the engine's results directly; together with
``json.dumps(payload, indent=2)`` they are the oracle for every renderer.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conicroute import cli
from conicroute.cli import Alternate, QueryResult
from conicroute.graph import ConicGraph, Violation
from conicroute.invention import FitnessReport, PolicyThreshold, invent_all
from conicroute.matrix_io import BuildMatrix, MatrixRow, build_graph

from test_matrix_io import populated


# --- the payload builders the renderers replaced ---------------------------------

def _fitness_payload(report: FitnessReport | None):
    if report is None:
        return None
    try:
        relative_error = float(report.relative_error)
    except OverflowError:  # past the float range, which JSON cannot write
        relative_error = None
    return {
        "invented_weight": report.invented_weight,
        "hidden_weight": report.hidden_weight,
        "absolute_error": report.absolute_error,
        "relative_error": relative_error,
        "fit": report.fit,
    }


def _query_payload(result: QueryResult) -> dict:
    best = None
    if result.best is not None:
        destination, distance, path = result.best
        best = {"destination": destination, "distance": distance, "path": path}
    return {
        "source": result.source,
        "best": best,
        "invented_alternates": [
            {
                "from": a.src_label,
                "to": a.dst_label,
                "weight": a.weight,
                "pair_weights": list(a.pair_weights),
                "fitness": _fitness_payload(a.fitness),
            }
            for a in result.invented_alternates
        ],
    }


def _query_table(payload: dict) -> str:
    lines = [f"source: {payload['source']}"]
    best = payload["best"]
    if best is None:
        lines.append("best: (no reachable destination)")
    else:
        lines.append(f"best: {best['destination']}  distance {best['distance']}"
                     f"  via {' -> '.join(best['path'])}")
    if payload["invented_alternates"]:
        lines.append("invented alternates:")
        for a in payload["invented_alternates"]:
            fit = "-" if a["fitness"] is None else ("fit" if a["fitness"]["fit"] else "unfit")
            lines.append(f"  {a['from']} -> {a['to']}  weight {a['weight']}  {fit}")
    else:
        lines.append("invented alternates: none")
    return "\n".join(lines) + "\n"


def _graph_payload(graph: ConicGraph) -> dict:
    return {
        "nodes": [
            {"id": n.id, "label": n.label, "kind": n.kind.value, "offset": n.offset}
            for n in graph.nodes
        ],
        "edges": [
            {
                "from": graph.node(e.src).label,
                "to": graph.node(e.dst).label,
                "weight": e.weight,
                "provenance": e.provenance.value,
            }
            for e in graph.edges
        ],
    }


def _graph_table(payload: dict) -> str:
    return "".join(
        [f"node {n['label']}  {n['kind']}  offset {n['offset']}\n" for n in payload["nodes"]]
        + [f"edge {e['from']} -> {e['to']}  weight {e['weight']}\n" for e in payload["edges"]]
    )


def _violations_payload(violations: list[Violation]) -> dict:
    return {"violations": [{"code": v.code, "detail": v.detail} for v in violations]}


def _violations_table(payload: dict) -> str:
    return "".join(f"{v['code']}: {v['detail']}\n" for v in payload["violations"]) or "valid\n"


def _invent_payload(graph: ConicGraph, inventions) -> dict:
    return {
        graph.node(source).label: [
            {
                "from": graph.node(e.src).label,
                "to": graph.node(e.dst).label,
                "weight": e.weight,
                "pair_weights": list(e.pair_weights),
            }
            for e in edges
        ]
        for source, edges in inventions.items()
    }


def _invent_table(payload: dict) -> str:
    return "".join(
        f"{source}: "
        + (", ".join(f"{e['from']}->{e['to']} ({e['weight']})" for e in edges) or "none")
        + "\n"
        for source, edges in payload.items()
    )


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# --- generated results ------------------------------------------------------------

# what JSON escapes: quotes, backslashes, control characters, non-ASCII text
# (astral too) and lone surrogates, which a str label may hold
_TRICKY = '"\\/\x00\x08\t\n\x1f\x7f \u00e9 \U0001f600 \ud800 \udfff'
labels = st.text(st.sampled_from(_TRICKY) | st.characters(exclude_categories=()),
                 min_size=1, max_size=6)
# weights up to 4,000 digits, the size a matrix cell may reach
integers = st.integers(-10**6, 10**6) | st.integers(10**3999, 10**4000)
weights = st.integers(1, 60) | st.integers(10**3999, 10**4000)


@st.composite
def graphs(draw):
    """A frozen matrix graph: sources without inventions and no nodes at all included."""
    names = draw(st.lists(labels, max_size=8, unique=True))
    split = draw(st.integers(0, len(names)))
    sources, destinations = names[:split], names[split:]
    row = st.lists(st.none() | weights, min_size=len(destinations), max_size=len(destinations))
    rows = tuple(MatrixRow(label, offset, populated(draw(row)))
                 for offset, label in enumerate(sources))
    offsets = tuple(range(1, len(destinations) + 1))
    graph, _ = build_graph(BuildMatrix(tuple(destinations), offsets, rows))
    return graph


relative_errors = st.one_of(
    st.fractions(min_value=0),
    st.builds(Fraction, st.integers(0, 10**400), st.integers(1, 10**6)),
    st.just(Fraction(10**400 - 2)),  # past the float range: written null
)
reports = st.none() | st.builds(FitnessReport, integers, integers, integers, relative_errors,
                                st.booleans())
alternates = st.builds(Alternate, labels, labels, integers, st.tuples(integers, integers),
                       reports)
results = st.builds(
    QueryResult, labels,
    st.none() | st.tuples(labels, integers, st.lists(labels, max_size=4)),
    st.lists(alternates, max_size=3),
)
violations = st.lists(st.builds(Violation, labels, st.text(st.characters(exclude_categories=()))),
                      max_size=4)

_EMPTY = ConicGraph().freeze()
_OVERFLOWING = QueryResult("s", None, [Alternate("A", "B", 10**400 - 1, (1, 10**400), FitnessReport(
    10**400 - 1, 1, 10**400 - 2, Fraction(10**400 - 2), False))])


# --- every renderer against its oracle ----------------------------------------------

@settings(max_examples=200)
@given(graphs(), st.none() | st.integers(1, 30))
@example(_EMPTY, None)
def test_invent_renderers_write_the_old_payload(graph, allowable):
    inventions = invent_all(graph, None if allowable is None else PolicyThreshold(allowable))
    payload = _invent_payload(graph, inventions)
    assert "".join(cli._invent_json(graph, inventions.items())) == _dumps(payload)
    assert "".join(cli._invent_table(graph, inventions.items())) == _invent_table(payload)


@settings(max_examples=200)
@given(results)
@example(_OVERFLOWING)
def test_query_renderers_write_the_old_payload(result):
    payload = _query_payload(result)
    assert "".join(cli._query_json(result)) == _dumps(payload)
    assert "".join(cli._query_table(result)) == _query_table(payload)


@settings(max_examples=100)
@given(st.lists(results, max_size=4))
@example([])
def test_all_sources_renderers_write_the_old_payload(many):
    payloads = [_query_payload(r) for r in many]
    assert "".join(cli._queries_json(iter(many))) == _dumps(payloads)
    assert "".join(cli._queries_table(iter(many))) == "\n".join(map(_query_table, payloads))


@settings(max_examples=200)
@given(graphs())
@example(_EMPTY)
def test_build_renderers_write_the_old_payload(graph):
    payload = _graph_payload(graph)
    assert "".join(cli._graph_json(graph)) == _dumps(payload)
    assert "".join(cli._graph_table(graph)) == _graph_table(payload)


@settings(max_examples=200)
@given(violations)
@example([])
def test_validate_renderers_write_the_old_payload(found):
    payload = _violations_payload(found)
    assert "".join(cli._violations_json(found)) == _dumps(payload)
    assert "".join(cli._violations_table(found)) == _violations_table(payload)
