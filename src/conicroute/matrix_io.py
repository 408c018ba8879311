"""Transition-matrix CSV ingestion, graph building, and re-emission.

File layout (UTF-8, comma-separated, LF):

    destinations,<label_1>,...,<label_m>
    offsets,<o_1>,...,<o_m>
    <source_label>,<source_offset>,<cell_1>,...,<cell_m>
    ...

Destination offsets are positive and strictly increasing; an empty cell
means "no edge", so a MatrixRow keeps only its populated cells. csv reads a
text only if it holds a '"' or a CR or a field past csv's field size limit;
any other is split at LF, and a row costs a few C-level passes over its line
and Python work per populated cell. Every number in a file is ASCII
``-?[0-9]+``. Hidden paths travel in their own CSV with the header
``from,to,true_weight``, one row per unordered pair of distinct destinations.
Parsing and graph building pause the collector (graph._collector_paused).
"""

from __future__ import annotations

import csv
import io
import re
from itertools import accumulate, compress
from operator import lt
from typing import NamedTuple

from .errors import (
    ConicRouteError,
    DuplicateOffsetInFile,
    MalformedHeader,
    NonIntegerCell,
    ParseError,
    RaggedRow,
    UnknownNode,
    ValidationFailed,
)
from .graph import ConicGraph, NodeId, NodeKind, Violation, _collector_paused
from .invention import HiddenPath

_COMMA_RUNS = re.compile(r"(,+)")
_INTS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")  # number tokens joined by commas


class MatrixRow(NamedTuple):
    source_label: str
    source_offset: int
    cells: tuple[tuple[int, int], ...]  # (column, weight), columns ascending


class BuildMatrix(NamedTuple):
    destination_labels: tuple[str, ...]
    destination_offsets: tuple[int, ...]
    rows: tuple[MatrixRow, ...]


def _ints(tokens: list[str]) -> list[int] | None:
    """The one grammar of every number in a file, ASCII ``-?[0-9]+``, checked by
    one regex over all the tokens: their ints, or None if one breaks it."""
    try:  # int() refuses more digits than it converts, and a csv field holding a comma
        return list(map(int, tokens)) if _INTS.fullmatch(",".join(tokens)) else None
    except ValueError:
        return None


def _int_cell(token: str, line: int, what: str) -> int:
    """One number by the one grammar (_INTS), or a NonIntegerCell that names it."""
    try:
        if _INTS.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than int() converts, or a comma
        pass
    raise NonIntegerCell(line, f"{what} {token!r} is not an integer")


def _check_increasing(prev: int, cur: int, line: int, what: str) -> None:
    """The one offset-order rule: each offset exceeds the one before it."""
    if cur == prev:
        raise DuplicateOffsetInFile(line, f"{what} offset {cur} repeated")
    if cur < prev:
        raise DuplicateOffsetInFile(line, f"{what} offsets must increase, {cur} after {prev}")


def _records(text: str) -> list[tuple[int, int, list[str]]]:
    """(line, field count, fields) per CSV record, without trailing blank lines,
    which are harmless; the line is the physical one a record ends on. A text csv
    would only split at commas (no '"', CR or field over its field size limit) is split
    at LF, each record past the second into two fields and the rest of its line."""
    lines, limit = text.split("\n"), csv.field_size_limit()
    # the limit is per field: only a line over it can hold a field over it
    if '"' in text or "\r" in text or any(max(map(len, line.split(","))) > limit
                                           for line in lines if len(line) > limit):
        reader = csv.reader(io.StringIO(text))
        try:
            records = [(reader.line_num, len(record), record) for record in reader]
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise ParseError(reader.line_num, str(exc)) from None
    else:
        records = [(n, line.count(",") + 1 if line else 0, line.split(",", -1 if n < 3 else 2))
                   for n, line in enumerate(lines, 1)]
    while records and not records[-1][1]:
        records.pop()
    return records


@_collector_paused
def parse_build_matrix(text: str) -> BuildMatrix:
    """Parse transition-matrix CSV text into a BuildMatrix of populated cells.

    Every parse failure carries the 1-based physical line it was found on,
    the last one of a record that spans lines.
    """
    records = _records(text)
    line, _, header = records[0] if records else (1, 0, [])
    if not header or header[0] != "destinations":
        raise MalformedHeader(line, "expected a 'destinations,<labels...>' line")
    labels = tuple(header[1:])
    if any(not label for label in labels):
        raise MalformedHeader(line, "destination labels must be non-empty")
    # a missing offsets record would start on the line after the header
    line, _, record = records[1] if len(records) > 1 else (line + 1, 0, [])
    if not record or record[0] != "offsets":
        raise MalformedHeader(line, "expected an 'offsets,<integers...>' line")
    if len(record) - 1 != len(labels):
        raise MalformedHeader(line, f"{len(record) - 1} offsets for {len(labels)} destinations")
    offsets = tuple(_ints(record[1:]) or [_int_cell(tok, line, "offset") for tok in record[1:]])
    for prev, cur in zip(offsets, offsets[1:]):
        _check_increasing(prev, cur, line, "destination")
    if offsets and offsets[0] <= 0:
        raise MalformedHeader(line, "destination offsets must be positive")

    rows: list[MatrixRow] = []
    for line, count, record in records[2:]:
        if not count:
            raise RaggedRow(line, "blank row inside the matrix body")
        if count != 2 + len(labels):
            raise RaggedRow(line, f"{count - 2} cells for {len(labels)} destinations")
        if len(record) == count:  # every field apart: read by csv, or at most one cell
            tokens, columns = record[2:], range(len(labels))
        else:  # the cell text, split at its comma runs, whose lengths sum to columns
            parts = _COMMA_RUNS.split(record[2])
            tokens, columns = parts[::2], accumulate(map(len, parts[1::2]), initial=0)
        numbers = [record[1], *filter(None, tokens)]
        offset, *weights = _ints(numbers) or [_int_cell(record[1], line, "source offset")]
        if rows:
            _check_increasing(rows[-1].source_offset, offset, line, "source")
        weights = weights or [_int_cell(tok, line, "cell") for tok in numbers[1:]]  # or raises
        rows.append(MatrixRow(record[0], offset, tuple(zip(compress(columns, tokens), weights))))
    return BuildMatrix(labels, offsets, tuple(rows))


def emit_build_matrix(matrix: BuildMatrix) -> str:
    """Canonical CSV text for a BuildMatrix (LF lines, minimal quoting), returned only if
    parse_build_matrix reads it back as the same matrix by repr (not ==, which takes an int
    subclass for its int); else ValueError: the ParseError, or the header or row that differs."""
    dests, rows = matrix.destination_labels, matrix.rows
    labels = (*dests, *(row.source_label for row in rows))
    out = io.StringIO()
    # a writer that ends lines in LF leaves a CR bare, and a reader ends the
    # line there; so a matrix with a CR in a label is quoted throughout
    quoting = csv.QUOTE_ALL if any("\r" in str(label) for label in labels) else csv.QUOTE_MINIMAL
    writer = csv.writer(out, lineterminator="\n", quoting=quoting)
    writer.writerows([["destinations", *dests], ["offsets", *matrix.destination_offsets]])
    for row in rows:
        # keyed by repr: a column not exactly an int (True, 1.0, "0", [0]) is written nowhere
        cells = {repr(column): weight for column, weight in row.cells}
        writer.writerow([row.source_label, row.source_offset,
                         *(cells.get(repr(i), "") for i in range(len(dests)))])
    text = out.getvalue()
    try:
        again = parse_build_matrix(text)
    except ParseError as exc:
        raise ValueError(f"matrix does not read back: {exc}") from None
    if repr(again) != repr(matrix):
        where = "header" if repr(again[:2]) != repr(matrix[:2]) else next(
            (f"row {row.source_label!r}" for row, back in zip(rows, again.rows)
             if repr(row) != repr(back)), "row tuple")
        raise ValueError(f"matrix does not read back: {where} differs")
    return text


@_collector_paused
def build_graph(matrix: BuildMatrix) -> tuple[ConicGraph, list[Violation]]:
    """Lenient graph construction: offending nodes/edges become violations.

    Rows become source nodes, columns destination nodes, populated cells
    original edges. Anything the graph rejects, a cell in no column, or one
    whose column does not exceed the one before it (RaggedRow), is skipped
    and recorded. The graph's _add_nodes adds the sources, then the destinations,
    each in one step when every add_node call would succeed, and its _add_row a
    row whose every cell add_edge would accept; other nodes go one by one through
    add_node and other rows cell by cell through add_edge, which alone decide
    each violation's code, detail and order.
    So the returned graph is always frozen and valid, and the violations are
    the whole report (graph.validate of it is empty).
    """
    g = ConicGraph()
    violations: list[Violation] = []

    def attempt(add, *args) -> int | None:
        """add(*args), or None with the rejection recorded as a violation."""
        try:
            return add(*args)
        except ConicRouteError as exc:
            violations.append(Violation(type(exc).__name__, str(exc)))
        except ValueError as exc:
            violations.append(Violation("InvalidNode", str(exc)))
        return None

    def add_nodes(labels, kind: NodeKind, offsets) -> list[NodeId | None]:
        """The nodes of one kind in one step, or add_node by add_node."""
        return g._add_nodes(labels, kind, offsets) or [  # None, or [] for no nodes
            attempt(g.add_node, label, kind, offset) for label, offset in zip(labels, offsets)]

    source_ids = add_nodes([row.source_label for row in matrix.rows], NodeKind.SOURCE,
                           [row.source_offset for row in matrix.rows])
    dest_ids = add_nodes(matrix.destination_labels, NodeKind.DESTINATION,
                         matrix.destination_offsets)
    # ascending columns reach ascending offsets, the order freeze() sorts a row into
    offsets = matrix.destination_offsets
    in_order = all(map(lt, offsets, offsets[1:]))
    for src, row in zip(source_ids, matrix.rows):
        if src is None or not row.cells:
            continue
        columns, weights = zip(*row.cells)
        # a clean row's columns are exactly ints, as _check_node's ids (not a bool or
        # float), and ascend within the header, so its ends bound them
        if (set(map(type, columns)) == {int} and 0 <= columns[0]
                and columns[-1] < len(dest_ids) and all(map(lt, columns, columns[1:]))):
            targets = tuple(map(dest_ids.__getitem__, columns))
            if None not in targets and g._add_row(src, targets, weights, in_order):
                continue
        last = -1
        for column, weight in row.cells:
            if type(column) is not int or not 0 <= column < len(dest_ids):
                violations.append(Violation("UnknownNode", f"no destination in column {column!r}"))
            elif column <= last:
                violations.append(Violation("RaggedRow", f"column {column} after column {last}"))
            else:
                last = column
                if dest_ids[column] is not None:
                    attempt(g.add_edge, src, dest_ids[column], weight)
    return g.freeze(), violations


def to_graph(matrix: BuildMatrix) -> ConicGraph:
    """Strict graph construction; raises ValidationFailed on any violation."""
    g, violations = build_graph(matrix)
    if violations:
        raise ValidationFailed(violations)
    return g


def from_graph(g: ConicGraph) -> BuildMatrix:
    """Re-emit a frozen graph in build-matrix form: its sources' original view."""
    g._require_frozen()
    dests = sorted(g.destinations(), key=lambda n: n.offset)
    column = {node.id: i for i, node in enumerate(dests)}
    # a view holds one edge per target, sorted by offset: columns come out ascending
    rows = tuple(MatrixRow(source.label, source.offset, tuple(
        (column[dst], weight) for dst, weight in g._original[source.id] if dst in column))
        for source in sorted(g.sources(), key=lambda n: n.offset))
    return BuildMatrix(tuple(n.label for n in dests), tuple(n.offset for n in dests), rows)


def parse_hidden_paths(text: str, g: ConicGraph) -> dict[frozenset[NodeId], HiddenPath]:
    """Parse a ``from,to,true_weight`` CSV against a graph's labels.

    Returns the paths keyed by their unordered destination pair, in file
    order. A pair given twice, in either orientation, is a parse error, and
    so is a destination paired with itself.
    """
    records = _records(text)
    if not records or records[0][2] != ["from", "to", "true_weight"]:
        raise MalformedHeader(1, "expected header 'from,to,true_weight'")
    paths: dict[frozenset[NodeId], HiddenPath] = {}
    first_line: dict[frozenset[NodeId], int] = {}
    for line, count, record in records[1:]:
        if count != 3:
            raise RaggedRow(line, f"expected 3 fields, got {count}")
        try:
            src = g.node_by_label(record[0])
            dst = g.node_by_label(record[1])
        except UnknownNode as exc:
            raise ParseError(line, str(exc)) from None
        for node in (src, dst):
            if node.kind is not NodeKind.DESTINATION:
                raise ParseError(line, f"{node.label!r} is not a destination")
        if src.id == dst.id:
            raise ParseError(line, f"hidden path joins {src.label!r} to itself")
        pair = frozenset((src.id, dst.id))
        if pair in paths:
            raise ParseError(line, f"duplicate hidden path {src.label!r}-{dst.label!r}, "
                                   f"first given on line {first_line[pair]}")
        weight = _int_cell(record[2], line, "true_weight")
        try:
            paths[pair] = HiddenPath(src.id, dst.id, weight)
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
        first_line[pair] = line
    return paths
