"""Command-line surface: build, validate, query, invent, export.

Every subcommand reads a matrix, whose graph is bipartite: no node has both
an in-edge and an out-edge, so there is nothing to contract. Contraction is
library API only (``build_hierarchy``).

Exit codes: 0 success, 1 usage error, 2 parse or validation failure,
3 query failure (unknown label or unreachable). A reader that closes
stdout early (``| head``) ends the run with exit 0 and no message. JSON
output is the machine format and is byte-identical for identical inputs;
``--format table`` renders the same data for people.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Any, Callable

from .dijkstra import path_to, shortest_paths
from .dot import export_dot
from .errors import (
    ConicRouteError,
    ParseError,
    Unreachable,
    UnknownNode,
    UnknownSourceLabel,
    ValidationFailed,
)
from .graph import ConicGraph, NodeId, NodeKind
from .invention import (
    DEFAULT_TOLERANCE,
    FitnessReport,
    HiddenPath,
    PolicyThreshold,
    fitness,
    invent_all,
    invent_for_source,
)
from .matrix_io import build_graph, parse_build_matrix, parse_hidden_paths, to_graph

OK = 0
USAGE_ERROR = 1
PARSE_ERROR = 2
QUERY_ERROR = 3


@dataclass(frozen=True)
class Alternate:
    """One invented edge of the queried source, optionally fitness-graded."""

    src_label: str
    dst_label: str
    weight: int
    pair_weights: tuple[int, int]
    fitness: FitnessReport | None


@dataclass(frozen=True)
class QueryResult:
    source: str
    best: "tuple[str, int, list[str]] | None"  # destination, distance, path labels
    invented_alternates: list[Alternate]


def cmd_query(graph: ConicGraph, source_label: str, *,
              invent: bool = True,
              hidden: "dict[frozenset[NodeId], HiddenPath] | None" = None,
              tolerance: "Fraction | float | str" = DEFAULT_TOLERANCE,
              allowable: "int | None" = None) -> QueryResult:
    """Dijkstra plus invention for one source of a frozen graph.

    ``hidden`` maps an unordered destination pair to its hidden path, as
    ``parse_hidden_paths`` returns it.
    """
    try:
        source = graph.node_by_label(source_label)
    except UnknownNode:
        raise UnknownSourceLabel(f"no source labelled {source_label!r}") from None
    if source.kind is not NodeKind.SOURCE:
        raise UnknownSourceLabel(f"{source_label!r} is a destination, not a source")
    policy = _policy(allowable)
    state = shortest_paths(graph, source.id)

    # the drained search settled exactly the nodes with a finite label
    reachable = [
        (state.dist[node.id], node.offset, node.id)
        for node in map(graph.node, state.settled_order)
        if node.kind is NodeKind.DESTINATION
    ]
    best = None
    if reachable:
        _, _, best_id = min(reachable)
        path = path_to(state, best_id)
        best = (
            graph.node(best_id).label,
            path.distance,
            [graph.node(n).label for n in path.nodes],
        )

    alternates: list[Alternate] = []
    if invent:
        by_pair = hidden or {}
        for edge in invent_for_source(graph, source.id, policy):
            path = by_pair.get(frozenset((edge.src, edge.dst)))
            alternates.append(Alternate(
                src_label=graph.node(edge.src).label,
                dst_label=graph.node(edge.dst).label,
                weight=edge.weight,
                pair_weights=edge.pair_weights,
                fitness=None if path is None else fitness(edge, path, tolerance),
            ))
    return QueryResult(source=source.label, best=best, invented_alternates=alternates)


# --- rendering ---------------------------------------------------------------

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


_JSON_BATCH = 65536  # encoder chunks per write


def _emit(args, payload, table: Callable[[Any], str]) -> None:
    """Write the payload as JSON, or as the text ``table`` renders from it."""
    if args.format == "json":
        # streamed in batches: the whole text is never held as one string,
        # and an unbuffered stdout (PYTHONUNBUFFERED) gets a few large writes
        # rather than one per encoder chunk
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := "".join(islice(chunks, _JSON_BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(table(payload))


# --- subcommands ----------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        data = path.read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise ConicRouteError(f"cannot read {exc.filename}") from None
    # line endings become \n as in text mode; utf-8-sig drops the
    # byte-order mark that spreadsheet exports prepend
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None


def _load_graph(path: Path) -> ConicGraph:
    return to_graph(parse_build_matrix(_read(path)))


def _policy(allowable: "int | None") -> "PolicyThreshold | None":
    return PolicyThreshold(allowable) if allowable is not None else None


def _build(args) -> int:
    _emit(args, _graph_payload(_load_graph(args.matrix)), _graph_table)
    return OK


def _validate(args) -> int:
    _, violations = build_graph(parse_build_matrix(_read(args.matrix)))
    _emit(args, {"violations": [{"code": v.code, "detail": v.detail} for v in violations]},
          _violations_table)
    return PARSE_ERROR if violations else OK


def _query(args) -> int:
    graph = _load_graph(args.matrix)
    hidden = None
    if args.hidden is not None:
        hidden = parse_hidden_paths(_read(args.hidden), graph)

    def query(label: str) -> QueryResult:
        return cmd_query(graph, label, invent=not args.no_invent, hidden=hidden,
                         tolerance=args.tolerance, allowable=args.allowable)

    if args.all_sources:
        payload = [_query_payload(query(node.label))
                   for node in sorted(graph.sources(), key=lambda n: n.offset)]
        _emit(args, payload, lambda results: "\n".join(map(_query_table, results)))
        return OK
    result = query(args.source)
    if result.best is None:
        raise Unreachable(f"source {args.source!r} reaches no destination")
    _emit(args, _query_payload(result), _query_table)
    return OK


def _invent(args) -> int:
    graph = _load_graph(args.matrix)
    _emit(args, _invent_payload(graph, invent_all(graph, _policy(args.allowable))), _invent_table)
    return OK


def _export(args) -> int:
    graph = _load_graph(args.matrix)
    invented = None
    if args.with_invented:
        by_source = invent_all(graph, _policy(args.allowable))
        invented = [e for group in by_source.values() for e in group]
    sys.stdout.write(export_dot(graph, invented=invented))
    return OK


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for parse
    # and validation failures.
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


# Fraction("1eN") builds 10**N, so a long exponent would keep parsing for
# hours; a ratio of two legal weights (up to 4,300 digits each) needs far less
MAX_TOLERANCE_EXPONENT = 10_000
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _tolerance(text: str) -> Fraction:
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > MAX_TOLERANCE_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"tolerance exponent must lie within ±{MAX_TOLERANCE_EXPONENT}: {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("tolerance must be non-negative")
    return value


def _allowable(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("allowable must be positive")
    return value


# flags shared by several subcommands; each subcommand takes the ones it reads
_FLAGS = {
    "--format": dict(choices=("json", "table"), default="json",
                     help="output format (default json)"),
    "--tolerance": dict(type=_tolerance, default=DEFAULT_TOLERANCE,
                        help="fitness tolerance as a rational, e.g. 0.1 or 1/10"),
    "--allowable": dict(type=_allowable, default=None,
                        help="suppress inventions heavier than this cap"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="conicroute",
                     description="Shortest paths and edge invention on conic graphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("matrix", type=Path, help="build-matrix CSV file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=run)
        return p

    command("build", _build, "ingest and validate a matrix, dump the graph as JSON",
            "--format")
    command("validate", _validate, "report structural violations of a matrix", "--format")

    query = command("query", _query, "best destination and invented alternates for a source",
                    "--format", "--tolerance", "--allowable")
    pick = query.add_mutually_exclusive_group(required=True)
    pick.add_argument("--source", help="source label to query")
    pick.add_argument("--all-sources", action="store_true",
                      help="query every source in offset order")
    query.add_argument("--hidden", type=Path, default=None,
                       help="hidden-path CSV (from,to,true_weight) for fitness")
    query.add_argument("--no-invent", action="store_true",
                       help="skip invention, report the best path only")

    command("invent", _invent, "invented edges for every source", "--format", "--allowable")

    export = command("export", _export, "render the graph as Graphviz DOT", "--allowable")
    export.add_argument("--invent", action="store_true", dest="with_invented",
                        help="include invented edges")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValidationFailed as exc:
        sys.stderr.write(f"conicroute: validation failed: {exc}\n")
        for violation in exc.violations:
            sys.stderr.write(f"  {violation.code}: {violation.detail}\n")
        return PARSE_ERROR
    except (UnknownSourceLabel, Unreachable) as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return QUERY_ERROR
    except ConicRouteError as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return PARSE_ERROR


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # the reader stopped early; exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = OK
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
