"""Command-line surface: build, validate, query, invent, contract, export.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure,
3 query failure (unknown label or unreachable). JSON output is the
machine format and is byte-identical for identical inputs; ``--format
table`` renders the same data for people.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .contraction import Overlay, build_hierarchy
from .dijkstra import path_to, shortest_paths
from .dot import export_dot
from .errors import (
    BadOrder,
    ConicRouteError,
    ParseError,
    Unreachable,
    UnknownNode,
    UnknownSourceLabel,
    ValidationFailed,
)
from .graph import ConicGraph, NodeId, NodeKind
from .invention import (
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
              hidden: "list[HiddenPath] | None" = None,
              tolerance: "Fraction | float | str" = Fraction(1, 10),
              allowable: "int | None" = None,
              use_invented: bool = False) -> QueryResult:
    """Dijkstra plus invention for one source of a frozen graph."""
    try:
        source = graph.node_by_label(source_label)
    except UnknownNode:
        raise UnknownSourceLabel(f"no source labelled {source_label!r}") from None
    if source.kind is not NodeKind.SOURCE:
        raise UnknownSourceLabel(f"{source_label!r} is a destination, not a source")
    policy = PolicyThreshold(allowable) if allowable is not None else None

    search_graph = graph
    if use_invented:
        # the query concerns one source, so only its own inventions join
        # the searched edge set (single-source inventions cannot cycle)
        edges = [e.as_edge() for e in invent_for_source(graph, source.id, policy)]
        search_graph = graph.extend(edges)
    state = shortest_paths(search_graph, source.id, use_invented=use_invented)

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
        by_pair: dict[frozenset[NodeId], HiddenPath] = {}
        for path in hidden or ():
            # either orientation joins the pair; the first listed path wins
            by_pair.setdefault(frozenset((path.src, path.dst)), path)
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
    return {
        "invented_weight": report.invented_weight,
        "hidden_weight": report.hidden_weight,
        "absolute_error": report.absolute_error,
        "relative_error": float(report.relative_error),
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


def _query_table(result: QueryResult) -> str:
    lines = [f"source: {result.source}"]
    if result.best is None:
        lines.append("best: (no reachable destination)")
    else:
        destination, distance, path = result.best
        lines.append(f"best: {destination}  distance {distance}  via {' -> '.join(path)}")
    if result.invented_alternates:
        lines.append("invented alternates:")
        for a in result.invented_alternates:
            fit = "-" if a.fitness is None else ("fit" if a.fitness.fit else "unfit")
            lines.append(f"  {a.src_label} -> {a.dst_label}  weight {a.weight}  {fit}")
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


def _overlay_payload(graph: ConicGraph, overlay: Overlay) -> dict:
    return {
        "order": [graph.node(n).label for n in overlay.order],
        "shortcuts": [
            {
                "from": graph.node(s.src).label,
                "via": graph.node(s.via).label,
                "to": graph.node(s.dst).label,
                "weight": s.weight,
            }
            for s in overlay.shortcuts
        ],
    }


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


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for parse
    # and validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> Fraction:
    try:
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


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("matrix", type=Path, help="build-matrix CSV file")
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json)")
    common.add_argument("--tolerance", type=_tolerance, default=Fraction(1, 10),
                        help="fitness tolerance as a rational, e.g. 0.1 or 1/10")
    common.add_argument("--allowable", type=_allowable, default=None,
                        help="suppress inventions heavier than this cap")
    common.add_argument("--use-invented", action="store_true",
                        help="let searches traverse invented/shortcut edges")

    parser = _Parser(prog="conicroute",
                     description="Shortest paths and edge invention on conic graphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("build", parents=[common],
                   help="ingest and validate a matrix, dump the graph as JSON")
    sub.add_parser("validate", parents=[common],
                   help="report structural violations of a matrix")

    query = sub.add_parser("query", parents=[common],
                           help="best destination and invented alternates for a source")
    pick = query.add_mutually_exclusive_group(required=True)
    pick.add_argument("--source", help="source label to query")
    pick.add_argument("--all-sources", action="store_true",
                      help="query every source in offset order")
    query.add_argument("--hidden", type=Path, default=None,
                       help="hidden-path CSV (from,to,true_weight) for fitness")
    query.add_argument("--no-invent", action="store_true",
                       help="skip invention, report the best path only")

    sub.add_parser("invent", parents=[common],
                   help="invented edges for every source")
    contract = sub.add_parser("contract", parents=[common],
                              help="contraction overlay (shortcut edges)")
    contract.add_argument("--order", default=None,
                          help="comma-separated node labels, least important first")

    export = sub.add_parser("export", parents=[common],
                            help="render the graph as Graphviz DOT")
    export.add_argument("--dot", action="store_true",
                        help="DOT output (the only format; accepted for clarity)")
    export.add_argument("--invent", action="store_true", dest="with_invented",
                        help="include invented edges")
    export.add_argument("--contract", action="store_true", dest="with_shortcuts",
                        help="include shortcut edges")
    return parser


def _read(path: Path) -> str:
    # drop the byte-order mark that spreadsheet exports prepend
    return path.read_text(encoding="utf-8").removeprefix("\ufeff")


def _load_graph(path: Path) -> ConicGraph:
    return to_graph(parse_build_matrix(_read(path)))


def _run(args) -> int:
    if args.command == "build":
        graph = _load_graph(args.matrix)
        if args.format == "json":
            _emit_json(_graph_payload(graph))
        else:
            for node in graph.nodes:
                sys.stdout.write(f"node {node.label}  {node.kind.value}  offset {node.offset}\n")
            for edge in graph.edges:
                sys.stdout.write(
                    f"edge {graph.node(edge.src).label} -> {graph.node(edge.dst).label}"
                    f"  weight {edge.weight}\n"
                )
        return OK

    if args.command == "validate":
        matrix = parse_build_matrix(_read(args.matrix))
        _, violations = build_graph(matrix)
        if args.format == "json":
            _emit_json({"violations": [{"code": v.code, "detail": v.detail}
                                       for v in violations]})
        else:
            if not violations:
                sys.stdout.write("valid\n")
            for v in violations:
                sys.stdout.write(f"{v.code}: {v.detail}\n")
        return PARSE_ERROR if violations else OK

    if args.command == "query":
        graph = _load_graph(args.matrix)
        hidden = None
        if args.hidden is not None:
            hidden = parse_hidden_paths(_read(args.hidden), graph)
        kwargs = dict(
            invent=not args.no_invent,
            hidden=hidden,
            tolerance=args.tolerance,
            allowable=args.allowable,
            use_invented=args.use_invented,
        )
        if args.all_sources:
            results = [
                cmd_query(graph, node.label, **kwargs)
                for node in sorted(graph.sources(), key=lambda n: n.offset)
            ]
            if args.format == "json":
                _emit_json([_query_payload(r) for r in results])
            else:
                sys.stdout.write("\n".join(_query_table(r) for r in results))
            return OK
        result = cmd_query(graph, args.source, **kwargs)
        if result.best is None:
            raise Unreachable(f"source {args.source!r} reaches no destination")
        if args.format == "json":
            _emit_json(_query_payload(result))
        else:
            sys.stdout.write(_query_table(result))
        return OK

    if args.command == "invent":
        graph = _load_graph(args.matrix)
        policy = PolicyThreshold(args.allowable) if args.allowable is not None else None
        payload = _invent_payload(graph, invent_all(graph, policy))
        if args.format == "json":
            _emit_json(payload)
        else:
            for source, edges in payload.items():
                rendered = ", ".join(f"{e['from']}->{e['to']} ({e['weight']})" for e in edges)
                sys.stdout.write(f"{source}: {rendered or 'none'}\n")
        return OK

    if args.command == "contract":
        graph = _load_graph(args.matrix)
        order = None
        if args.order is not None:
            order = [graph.node_by_label(label.strip()).id
                     for label in args.order.split(",")]
        overlay = build_hierarchy(graph, order)
        payload = _overlay_payload(graph, overlay)
        if args.format == "json":
            _emit_json(payload)
        else:
            for s in payload["shortcuts"]:
                sys.stdout.write(
                    f"{s['from']} -> {s['to']} via {s['via']}  weight {s['weight']}\n"
                )
            if not payload["shortcuts"]:
                sys.stdout.write("no shortcuts\n")
        return OK

    if args.command == "export":
        graph = _load_graph(args.matrix)
        shortcuts = None
        if args.with_shortcuts:
            shortcuts = build_hierarchy(graph).shortcuts
        invented = None
        if args.with_invented:
            policy = PolicyThreshold(args.allowable) if args.allowable is not None else None
            invented = [e for group in invent_all(graph, policy).values() for e in group]
        sys.stdout.write(export_dot(graph, overlay=shortcuts, invented=invented))
        return OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except BadOrder as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return USAGE_ERROR
    except FileNotFoundError as exc:
        sys.stderr.write(f"conicroute: cannot read {exc.filename}\n")
        return PARSE_ERROR
    except ValidationFailed as exc:
        sys.stderr.write(f"conicroute: validation failed: {exc}\n")
        for violation in exc.violations:
            sys.stderr.write(f"  {violation.code}: {violation.detail}\n")
        return PARSE_ERROR
    except ParseError as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return PARSE_ERROR
    except (UnknownSourceLabel, Unreachable) as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return QUERY_ERROR
    except ConicRouteError as exc:
        sys.stderr.write(f"conicroute: {exc}\n")
        return PARSE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
