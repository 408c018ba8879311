"""Command-line surface: build, validate, query, invent, export.

Every subcommand reads a matrix, whose graph is bipartite: no node has both
an in-edge and an out-edge, so there is nothing to contract. Contraction is
library API only (``build_hierarchy``).

Exit codes: 0 success, 1 usage error, 2 parse, validation or I/O failure
(an input that cannot be read, output that cannot be written), 3 query
failure (unknown label or unreachable). A reader that closes stdout early
(``| head``) ends the run with exit 0 and no message. JSON output is the
machine format: exactly the text ``json.dumps(payload, indent=2)`` writes,
plus a newline, byte-identical for identical inputs. A renderer per payload
shape writes it straight from the engine's results, one top-level entry at
a time (``invent`` and ``query --all-sources``: one source at a time);
``--format table`` renders the same results for people. A run of main()
has the cyclic collector paused (graph._collector_paused).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .dijkstra import path_to, shortest_paths
from .dot import export_dot
from .errors import (
    ConicRouteError,
    NonIntegerCell,
    ParseError,
    Unreachable,
    UnknownNode,
    UnknownSourceLabel,
    ValidationFailed,
)
from .graph import ConicGraph, NodeId, NodeKind, Violation, _collector_paused
from .invention import (
    DEFAULT_TOLERANCE,
    FitnessReport,
    HiddenPath,
    InventedEdge,
    PolicyThreshold,
    _as_fraction,
    fitness,
    invent_all,
    invent_for_source,
)
from .matrix_io import _int_cell, build_graph, parse_build_matrix, parse_hidden_paths, to_graph

OK = 0
USAGE_ERROR = 1
PARSE_ERROR = 2
QUERY_ERROR = 3


class Alternate(NamedTuple):
    """One invented edge of the queried source, optionally fitness-graded;
    like QueryResult, an immutable tuple of its fields."""

    src_label: str
    dst_label: str
    weight: int
    pair_weights: tuple[int, int]
    fitness: FitnessReport | None


class QueryResult(NamedTuple):
    source: str
    best: "tuple[str, int, list[str]] | None"  # destination, distance, path labels
    invented_alternates: list[Alternate]


def cmd_query(graph: ConicGraph, source_label: str, *,
              invent: bool = True,
              hidden: "dict[frozenset[NodeId], HiddenPath] | None" = None,
              tolerance: "Fraction | float | str" = DEFAULT_TOLERANCE,
              policy: "PolicyThreshold | None" = None) -> QueryResult:
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
    state = shortest_paths(graph, source.id)

    # the search and the pair walk yield only ids of this graph: read them unchecked
    # an Enum member is a slow class attribute: read it once
    nodes, dist, destination = graph._nodes, state.dist, NodeKind.DESTINATION
    # the search settles in (label, id) order: the best (label, offset, id) is the
    # first destination settled or one tied with it, so the walk stops past its label
    best = best_id = None
    for node_id in state.settled_order:
        node = nodes[node_id]
        if best_id is None:
            if node.kind is destination:
                best_id, bound, offset = node_id, dist[node_id], node.offset
        elif dist[node_id] > bound:
            break
        elif node.kind is destination and node.offset < offset:
            best_id, offset = node_id, node.offset
    if best_id is not None:
        path = path_to(state, best_id)
        best = (nodes[best_id].label, path.distance, [nodes[n].label for n in path.nodes])

    alternates: list[Alternate] = []
    if invent:
        new = tuple.__new__  # builds a record without the NamedTuple's Python-level __new__
        for edge in invent_for_source(graph, source.id, policy):
            _, src, dst, weight, pair_weights = edge
            known = hidden.get(frozenset((src, dst))) if hidden else None
            alternates.append(new(Alternate, (
                nodes[src].label, nodes[dst].label, weight, pair_weights,
                None if known is None else fitness(edge, known, tolerance))))
    return QueryResult(source.label, best, alternates)


# --- rendering ---------------------------------------------------------------
#
# One renderer per payload shape, for each format. A renderer reads the
# engine's results and yields its text one top-level entry at a time; its
# JSON is exactly json.dumps(payload, indent=2) + "\n". Records come from
# %-templates: strings through json's own C encoder, ints through %d, floats
# through float.__repr__. An encoded string holds no raw newline, so a block
# of JSON moves one level in by indenting every newline in it.

_str = encode_basestring_ascii

_PAIR = ('"from": %s,\n      "to": %s,\n      "weight": %d,\n'
         '      "pair_weights": [\n        %d,\n        %d\n      ]')
_INVENTION = '{\n      ' + _PAIR + '\n    }'
_ALTERNATE = '{\n      ' + _PAIR + ',\n      "fitness": %s\n    }'
_FITNESS = ('{\n        "invented_weight": %d,\n        "hidden_weight": %d,\n'
            '        "absolute_error": %d,\n        "relative_error": %s,\n'
            '        "fit": %s\n      }')
_BEST = '{\n    "destination": %s,\n    "distance": %d,\n    "path": %s\n  }'
_QUERY = '{\n  "source": %s,\n  "best": %s,\n  "invented_alternates": %s\n}'
_NODE = '{\n      "id": %d,\n      "label": %s,\n      "kind": %s,\n      "offset": %d\n    }'
_EDGE = '{\n      "from": %s,\n      "to": %s,\n      "weight": %d,\n      "provenance": %s\n    }'
_VIOLATION = '{\n      "code": %s,\n      "detail": %s\n    }'


def _array(items: list[str], pad: str) -> str:
    """A JSON array of encoded items, on a line indented by ``pad``."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _top(brackets: str, entries: Iterable[str]) -> Iterator[str]:
    """A top-level JSON array or object ("[]" or "{}") of encoded entries,
    one chunk per entry."""
    opened = False
    for entry in entries:
        yield (",\n  " if opened else brackets[0] + "\n  ") + entry
        opened = True
    yield ("\n" + brackets[1] if opened else brackets) + "\n"


def _labels(graph: ConicGraph) -> list[str]:
    """Every node's label as JSON, indexed by node id."""
    return [_str(node.label) for node in graph.nodes]


def _fitness_text(report: FitnessReport | None) -> str:
    if report is None:
        return "null"
    try:
        relative_error = repr(float(report.relative_error))
    except OverflowError:  # past the float range, which JSON cannot write
        relative_error = "null"
    return _FITNESS % (report.invented_weight, report.hidden_weight, report.absolute_error,
                       relative_error, "true" if report.fit else "false")


def _query_text(result: QueryResult) -> str:
    best = "null"
    if result.best is not None:
        destination, distance, path = result.best
        best = _BEST % (_str(destination), distance, _array(list(map(_str, path)), "    "))
    alternates = [_ALTERNATE % (_str(src), _str(dst), weight, lo, hi, _fitness_text(report))
                  for src, dst, weight, (lo, hi), report in result.invented_alternates]
    return _QUERY % (_str(result.source), best, _array(alternates, "  "))


def _query_json(result: QueryResult) -> Iterator[str]:
    yield _query_text(result) + "\n"


def _queries_json(results: Iterable[QueryResult]) -> Iterator[str]:
    return _top("[]", (_query_text(r).replace("\n", "\n  ") for r in results))


def _query_lines(result: QueryResult) -> str:
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


def _query_table(result: QueryResult) -> Iterator[str]:
    yield _query_lines(result)


def _queries_table(results: Iterable[QueryResult]) -> Iterator[str]:
    lead = ""
    for result in results:
        yield lead + _query_lines(result)
        lead = "\n"


def _graph_json(graph: ConicGraph) -> Iterator[str]:
    labels = _labels(graph)
    yield '{\n  "nodes": ' + _array([_NODE % (n.id, labels[n.id], _str(n.kind.value), n.offset)
                                     for n in graph.nodes], "  ")
    yield ',\n  "edges": ' + _array([_EDGE % (labels[src], labels[dst], weight, kind)
                                     for src, pairs, provenance in graph._log
                                     for kind in [_str(provenance.value)]
                                     for dst, weight in pairs], "  ") + "\n}\n"


def _graph_table(graph: ConicGraph) -> Iterator[str]:
    nodes = graph.nodes
    yield "".join(f"node {n.label}  {n.kind.value}  offset {n.offset}\n" for n in nodes)
    yield "".join(f"edge {nodes[src].label} -> {nodes[dst].label}  weight {weight}\n"
                  for src, pairs, _ in graph._log for dst, weight in pairs)


def _violations_json(violations: list[Violation]) -> Iterator[str]:
    yield '{\n  "violations": ' + _array(
        [_VIOLATION % (_str(v.code), _str(v.detail)) for v in violations], "  ") + "\n}\n"


def _violations_table(violations: list[Violation]) -> Iterator[str]:
    yield "".join(f"{v.code}: {v.detail}\n" for v in violations) or "valid\n"


def _invent_json(graph: ConicGraph,
                 inventions: Iterable[tuple[NodeId, list[InventedEdge]]]) -> Iterator[str]:
    labels = _labels(graph)
    return _top("{}", (
        labels[source] + ": " + _array([_INVENTION % (labels[src], labels[dst], weight, lo, hi)
                                        for _, src, dst, weight, (lo, hi) in edges], "  ")
        for source, edges in inventions
    ))


def _invent_table(graph: ConicGraph,
                  inventions: Iterable[tuple[NodeId, list[InventedEdge]]]) -> Iterator[str]:
    nodes = graph.nodes
    for source, edges in inventions:
        yield (f"{nodes[source].label}: "
               + (", ".join(f"{nodes[e.src].label}->{nodes[e.dst].label} ({e.weight})"
                            for e in edges) or "none")
               + "\n")


def _emit(args, render_json: Callable[..., Iterable[str]],
          render_table: Callable[..., Iterable[str]], *results) -> None:
    """Write the results as the ``--format`` renderer yields them, a chunk at a time."""
    write = sys.stdout.write
    for chunk in (render_json if args.format == "json" else render_table)(*results):
        write(chunk)


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


def _build(args) -> int:
    _emit(args, _graph_json, _graph_table, _load_graph(args.matrix))
    return OK


def _validate(args) -> int:
    _, violations = build_graph(parse_build_matrix(_read(args.matrix)))
    _emit(args, _violations_json, _violations_table, violations)
    return PARSE_ERROR if violations else OK


def _query(args) -> int:
    graph = _load_graph(args.matrix)
    hidden = None
    if args.hidden is not None:
        hidden = parse_hidden_paths(_read(args.hidden), graph)

    def query(label: str) -> QueryResult:
        return cmd_query(graph, label, invent=not args.no_invent, hidden=hidden,
                         tolerance=args.tolerance, policy=args.allowable)

    if args.all_sources:
        # each result is rendered and written before the next query runs
        labels = [node.label for node in sorted(graph.sources(), key=lambda n: n.offset)]
        _emit(args, _queries_json, _queries_table, map(query, labels))
        return OK
    result = query(args.source)
    if result.best is None:
        raise Unreachable(f"source {args.source!r} reaches no destination")
    _emit(args, _query_json, _query_table, result)
    return OK


def _invent(args) -> int:
    graph = _load_graph(args.matrix)
    # each source's inventions are written before the next source's walk
    _emit(args, _invent_json, _invent_table, graph,
          ((s.id, invent_for_source(graph, s.id, args.allowable)) for s in graph.sources()))
    return OK


def _export(args) -> int:
    graph = _load_graph(args.matrix)
    invented = None
    if args.with_invented:
        by_source = invent_all(graph, args.allowable)
        invented = [e for group in by_source.values() for e in group]
    sys.stdout.write(export_dot(graph, invented=invented))
    return OK


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for parse
    # and validation failures.
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> Fraction:
    """The tolerance, read by fitness()'s own grammar."""
    try:
        return _as_fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _allowable(text: str) -> PolicyThreshold:
    """The cap, read by the file grammar and checked by PolicyThreshold itself."""
    try:  # a flag has no file line: the grammar's message is replaced below
        return PolicyThreshold(_int_cell(text, 0, "allowable"))
    except NonIntegerCell:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# flags shared by several subcommands; each subcommand takes the ones it reads
_FLAGS = {
    "--format": dict(choices=("json", "table"), default="json",
                     help="output format (default json)"),
    "--tolerance": dict(type=_tolerance, default=DEFAULT_TOLERANCE,
                        help="fitness tolerance, an unsigned decimal or ratio such as "
                             "0.1, 1e-1 or 1/10 (default 1/10)"),
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


@_collector_paused
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
    # Python sets the stream of a closed fd to None
    if sys.stderr is None:  # messages go nowhere, the exit codes stay
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # no write can succeed
        sys.stderr.write(f"conicroute: cannot write output: {os.strerror(errno.EBADF)}\n")
        sys.exit(PARSE_ERROR)
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # the reader stopped early; exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = OK
    except OSError as exc:  # any other failed write, e.g. to a full disk; _read wraps its own
        sys.stderr.write(f"conicroute: cannot write output: {exc.strerror}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PARSE_ERROR
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
