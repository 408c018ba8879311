"""Matrix CSV parsing, graph building, re-emission, hidden-path files."""

from __future__ import annotations

import csv
import enum
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conicroute import matrix_io
from conicroute.cli import main
from conicroute.dijkstra import shortest_paths
from conicroute.errors import (
    ConicRouteError,
    DuplicateOffset,
    GraphNotFrozen,
    MalformedHeader,
    NonIntegerCell,
    ParseError,
    RaggedRow,
    ValidationFailed,
)
from conicroute.graph import ConicGraph, NodeKind, Provenance, Violation
from conicroute.invention import invent_all
from conicroute.matrix_io import (
    BuildMatrix,
    MatrixRow,
    build_graph,
    emit_build_matrix,
    from_graph,
    parse_build_matrix,
    parse_hidden_paths,
    to_graph,
)

from conftest import MATRIX_PATH, label_id
from test_invention import _later_lighter_graph, _parallel_graph, parallel_conic_graphs


def test_parse_hospital_fixture(matrix_text):
    matrix = parse_build_matrix(matrix_text)
    assert len(matrix.destination_labels) == 8
    assert len(matrix.rows) == 4
    assert sum(len(row.cells) for row in matrix.rows) == 8
    assert matrix.destination_offsets == (1, 2, 3, 4, 5, 6, 7, 8)
    assert matrix.rows[0].source_label == "Rumuomasi"
    assert matrix.rows[0].cells == ((0, 312), (1, 771))  # column 2 (PC) is empty


def test_parse_header_only_is_valid():
    matrix = parse_build_matrix("destinations,A,B\noffsets,1,2\n")
    assert matrix.rows == ()
    assert matrix.destination_labels == ("A", "B")


def test_parse_empty_matrix():
    matrix = parse_build_matrix("destinations\noffsets\n")
    assert matrix.destination_labels == ()
    assert to_graph(matrix).node_count == 0


def test_parse_missing_destinations_line():
    with pytest.raises(MalformedHeader) as err:
        parse_build_matrix("sources,A\noffsets,1\n")
    assert err.value.line == 1


def test_parse_missing_offsets_line():
    with pytest.raises(MalformedHeader) as err:
        parse_build_matrix("destinations,A\n")
    assert err.value.line == 2


def test_parse_ragged_row_names_its_line():
    text = "destinations,A,B\noffsets,1,2\nS1,0,10,20\nS2,1,30\n"
    with pytest.raises(RaggedRow) as err:
        parse_build_matrix(text)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_parse_non_integer_cell():
    text = "destinations,A\noffsets,1\nS1,0,ten\n"
    with pytest.raises(NonIntegerCell) as err:
        parse_build_matrix(text)
    assert err.value.line == 3


# every number of a file is ASCII -?[0-9]+; int() alone would take each of these
_NOT_ASCII_DIGITS = ["1_0", " 3", "3 ", "+5", "\u0663", "\uff15", "--1", "-", "1.0", "1e3",
                     "0x1F", "\u00b2"]


@pytest.mark.parametrize("token", _NOT_ASCII_DIGITS + [
    pytest.param("9" * 4301, id="4301_digits")])  # past the digits int() converts
@pytest.mark.parametrize("field", ["cell", "source offset", "offset", "true_weight"])
def test_a_number_outside_ascii_digits_is_a_non_integer_cell(hospital_graph, field, token):
    if field == "true_weight":
        parse, line = (lambda text: parse_hidden_paths(text, hospital_graph)), 2
        text = f"from,to,true_weight\nCMC,MC,{token}\n"
    else:
        parse = parse_build_matrix
        line = {"cell": 3, "source offset": 3, "offset": 2}[field]
        text = {"cell": f"destinations,A\noffsets,1\nS1,0,{token}\n",
                "source offset": f"destinations,A\noffsets,1\nS1,{token},10\n",
                "offset": f"destinations,A\noffsets,{token}\n"}[field]
    with pytest.raises(NonIntegerCell) as err:
        parse(text)
    assert str(err.value) == f"line {line}: {field} {token!r} is not an integer"


def test_ascii_digits_with_a_leading_minus_or_zeros_are_integers():
    matrix = parse_build_matrix("destinations,A,B\noffsets,1,02\nS1,-0,007,-3\n")
    assert matrix.destination_offsets == (1, 2)
    assert matrix.rows == (MatrixRow("S1", 0, ((0, 7), (1, -3))),)


def test_parse_duplicate_destination_offset():
    with pytest.raises(DuplicateOffset) as err:
        parse_build_matrix("destinations,A,B\noffsets,1,1\n")
    assert err.value.line == 2


def test_parse_out_of_order_source_offsets():
    text = "destinations,A\noffsets,1\nS1,5,10\nS2,2,20\n"
    with pytest.raises(DuplicateOffset) as err:
        parse_build_matrix(text)
    assert err.value.line == 4


@pytest.mark.parametrize("text, error, message", [
    ("destinations,A,\noffsets,1,2\n", MalformedHeader,
     "line 1: destination labels must be non-empty"),
    ("destinations,A,B\noffsets,2,1\n", DuplicateOffset,
     "line 2: destination offsets must increase, 1 after 2"),
    ("destinations,A,B\noffsets,0,1\n", MalformedHeader,
     "line 2: destination offsets must be positive"),
    ("destinations,A\noffsets,1\nS1,3,10\nS2,3,20\n", DuplicateOffset,
     "line 4: source offset 3 repeated"),
    ("destinations,A\noffsets,1\nS1,0,10\n\nS2,1,20\n", RaggedRow,
     "line 4: blank row inside the matrix body"),
    # a quoted field that spans lines moves every later line
    ('destinations,"C\nMC",MC\noffsets,1,2\nA,0,5,7\nB,1,x,3\n', NonIntegerCell,
     "line 5: cell 'x' is not an integer"),
    ('destinations,A\noffsets,1\n"S\n1",0,10\n\nS2,1,20\n', RaggedRow,
     "line 5: blank row inside the matrix body"),
    ('destinations,"A\nB",C\noffsets,2,1\n', DuplicateOffset,
     "line 3: destination offsets must increase, 1 after 2"),
    ('destinations,"A\nB"\n', MalformedHeader,
     "line 3: expected an 'offsets,<integers...>' line"),
    ('destinations,"A\nB",\noffsets,1,2\n', MalformedHeader,
     "line 2: destination labels must be non-empty"),
], ids=["empty_destination_label", "decreasing_destination_offsets",
        "first_destination_offset_zero", "repeated_source_offset", "blank_body_row",
        "cell_after_two_line_header", "blank_row_after_two_line_record",
        "offsets_after_two_line_header", "offsets_missing_after_two_line_header",
        "empty_label_in_two_line_header"])
def test_parse_header_and_offset_errors_name_their_line(text, error, message):
    with pytest.raises(error) as err:
        parse_build_matrix(text)
    assert str(err.value) == message


def test_to_graph_hospital_counts(matrix_text):
    g = to_graph(parse_build_matrix(matrix_text))
    assert g.node_count == 12
    assert g.edge_count == 8
    assert len(g.sources()) == 4
    assert len(g.destinations()) == 8
    assert all(e.provenance is Provenance.ORIGINAL for e in g.edges)
    assert g.frozen


def test_to_graph_zero_cell_is_a_violation():
    text = "destinations,A,B\noffsets,1,2\nS1,0,0,20\n"
    with pytest.raises(ValidationFailed) as err:
        to_graph(parse_build_matrix(text))
    assert [v.code for v in err.value.violations] == ["NonPositiveWeight"]


def test_to_graph_equal_row_weights_is_a_violation():
    text = "destinations,A,B\noffsets,1,2\nS1,0,15,15\n"
    with pytest.raises(ValidationFailed) as err:
        to_graph(parse_build_matrix(text))
    assert [v.code for v in err.value.violations] == ["EqualAdjacentWeight"]


def test_build_graph_collects_all_violations():
    text = "destinations,A,B,C\noffsets,1,2,3\nS1,0,0,15,15\n"
    g, violations = build_graph(parse_build_matrix(text))
    assert sorted(v.code for v in violations) == ["EqualAdjacentWeight", "NonPositiveWeight"]
    assert g.frozen
    assert g.edge_count == 1  # the offending cells were skipped


def _wide_text(n_dest: int, *rows: str) -> str:
    """A matrix of n_dest destinations; each row is '<label>,<offset>,' and
    the text of its cells."""
    return "".join([f"destinations,{','.join(f'd{j}' for j in range(n_dest))}\n",
                    f"offsets,{','.join(str(j + 1) for j in range(n_dest))}\n",
                    *(row + "\n" for row in rows)])


def test_ingestion_reads_only_the_populated_cells(monkeypatch):
    rng = random.Random(21)
    n_dest, rows, expected = 2000, [], []
    for i in range(3):  # 20 of 2,000 cells a row: 1% populated
        pairs = tuple(zip(sorted(rng.sample(range(n_dest), 20)), rng.sample(range(1, 999), 20)))
        cells = [""] * n_dest
        for column, weight in pairs:
            cells[column] = str(weight)
        rows.append(f"s{i},{i}," + ",".join(cells))
        expected.append(MatrixRow(f"s{i}", i, pairs))
    read, ints = [], matrix_io._ints

    def counting(tokens):  # the one grammar step every number of a row goes through
        read.extend(tokens)
        return ints(tokens)

    monkeypatch.setattr(matrix_io, "_ints", counting)
    matrix = parse_build_matrix(_wide_text(n_dest, *rows))
    assert matrix.rows == tuple(expected)
    assert len(read) == n_dest + 3 + 60  # offsets, source offsets, populated cells
    assert "" not in read
    assert to_graph(matrix).edge_count == 60


@pytest.mark.parametrize("token", ["x", " 3", "1_0"])
def test_a_bad_cell_after_thousands_of_empty_cells_is_reported(token):
    cells = ",".join([""] * 2997 + [token, "", "y"])  # the first bad cell wins
    text = _wide_text(3000, "S1,0," + "," * 2999, "S2,1," + cells)
    with pytest.raises(NonIntegerCell) as err:
        parse_build_matrix(text)
    assert str(err.value) == f"line 4: cell {token!r} is not an integer"


@pytest.mark.parametrize("token", ["x", " 3", "1_0"])
def test_a_bad_cell_after_a_label_that_spans_lines_is_reported(token):
    cells = ",".join([""] * 2997 + [token, "", "y"])
    text = _wide_text(3000, '"S\n1",0,' + "," * 2999, '"S\n2",1,' + cells)
    with pytest.raises(NonIntegerCell) as err:
        parse_build_matrix(text)
    assert str(err.value) == f"line 6: cell {token!r} is not an integer"


def test_a_quoted_number_is_an_edge_and_a_quoted_empty_cell_is_no_edge():
    matrix = parse_build_matrix('destinations,A,B,C\noffsets,1,2,3\nS,0,"5","",7\n')
    assert matrix.rows == (MatrixRow("S", 0, ((0, 5), (2, 7))),)


def _outcome(text: str, parse=parse_build_matrix):
    """What a parse makes of a text: its result, or its error's type, line and
    message."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)


# cell text of every kind the grammar sees: none, numbers, text that int()
# would read, and more digits than int() converts
_GOOD_TOKENS = st.sampled_from(["", "", "", "7", "-3", "007", "42"])
_CELL_TOKENS = _GOOD_TOKENS | st.sampled_from(["x", " 3", "1_0", "\u0663", "9" * 5000])
_LABEL_CHARS = st.sampled_from("aZ 9\x00\x0b\u2028\u00e9")


@st.composite
def quote_free_texts(draw) -> str:
    """A matrix text without '"' or CR, often well-formed and often not: blank
    and trailing lines, ragged rows, empty labels and cells outside the grammar."""
    n_dest, mangled = draw(st.integers(0, 4)), draw(st.integers(0, 5)) == 0
    labels = st.text(_LABEL_CHARS, min_size=0 if mangled else 1, max_size=3)
    header = ["destinations", *draw(st.lists(labels, min_size=n_dest, max_size=n_dest))]
    offsets = [str(j + 1) for j in range(n_dest)]
    if draw(st.integers(0, 5)) == 0:
        offsets = draw(st.lists(_CELL_TOKENS, min_size=n_dest, max_size=n_dest + 1))
    lines = [",".join(header), ",".join(["offsets", *offsets])]
    for i in range(draw(st.integers(0, 4))):
        odd = draw(st.integers(0, 11))  # 1 to 3 break the row, 0 puts a line after it
        cells = _CELL_TOKENS if odd == 1 else _GOOD_TOKENS
        fields = [draw(st.text(_LABEL_CHARS, max_size=3)),
                  draw(_CELL_TOKENS) if odd == 2 else str(i),
                  *draw(st.lists(cells, min_size=n_dest, max_size=n_dest)), "5"]
        lines.append(",".join(fields[:draw(st.integers(1, len(fields))) if odd == 3 else -1]))
        if odd == 0:
            lines.append(draw(st.sampled_from(["", ",", ",,,"])))
    lines = lines[:draw(st.integers(1, len(lines)))] if mangled else lines
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n\n\n"]))


@settings(max_examples=300)
@given(quote_free_texts())
@example("destinations,A\noffsets,1\nS,0,\n\n")
@example("destinations\noffsets\nS,0\nT\n")
def test_a_quote_free_text_reads_as_its_quoted_twin(text):
    # the quoted first field sends the twin through csv: both paths agree
    twin = '"destinations"' + text.removeprefix("destinations")
    assert '"' not in text and _outcome(text) == _outcome(twin)


_ENDS = st.sampled_from(["CMC", "MC", "PC", "SC", "Rumuomasi", "", "x"])
_WEIGHTS = st.sampled_from(["5", "70", "-5", "", " 3", "9" * 5000])


@settings(max_examples=200)
@given(st.lists(st.tuples(_ENDS, _ENDS, _WEIGHTS).map(list) | st.lists(_ENDS, max_size=4),
                max_size=4), st.sampled_from(["", "\n", "\n\n"]))
def test_a_quote_free_hidden_path_text_reads_as_its_quoted_twin(hospital_graph, rows, end):
    text = "\n".join(["from,to,true_weight", *map(",".join, rows)]) + end
    parse = lambda text: parse_hidden_paths(text, hospital_graph)
    assert _outcome(text, parse) == _outcome('"from"' + text.removeprefix("from"), parse)


def _raising_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


def test_a_quote_free_text_is_read_without_csv(monkeypatch, capsys):
    rng = random.Random(28)
    rows = [f"s{i},{i}," + ",".join(str(rng.randint(1, 999)) if rng.random() < 0.02 else ""
                                    for _ in range(500)) for i in range(20)]
    text = _wide_text(500, *rows)
    expected = parse_build_matrix('"destinations"' + text.removeprefix("destinations"))
    monkeypatch.setattr(matrix_io.csv, "reader", _raising_reader)
    assert parse_build_matrix(text) == expected
    assert sum(len(row.cells) for row in expected.rows) > 100
    for command in ("build", "invent"):
        assert main([command, str(MATRIX_PATH)]) == 0


@pytest.mark.parametrize("text", ['destinations,"A"\noffsets,1\n',
                                  "destinations,A\r\noffsets,1\r\n"], ids=["quote", "CR"])
def test_a_text_with_a_quote_or_cr_is_read_by_csv(text, monkeypatch):
    assert parse_build_matrix(text) == BuildMatrix(("A",), (1,), ())
    monkeypatch.setattr(matrix_io.csv, "reader", _raising_reader)
    with pytest.raises(AssertionError, match="csv.reader called"):
        parse_build_matrix(text)


@pytest.mark.parametrize("row, message", [
    ('S,0,"1,2",x', "cell '1,2' is not an integer"),
    ('S,0,"1,2",', "cell '1,2' is not an integer"),
    ('S,0,x,"1,2"', "cell 'x' is not an integer"),
    ('S,"1,2",5,', "source offset '1,2' is not an integer"),
])
def test_a_csv_field_that_holds_a_comma_is_one_bad_cell(row, message):
    with pytest.raises(NonIntegerCell) as err:
        parse_build_matrix(f"destinations,A,B\noffsets,1,2\n{row}\n")
    assert str(err.value) == f"line 3: {message}"


_LONG = "L" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text, line", [
    (f"destinations,A\noffsets,1\n{_LONG},0,5\n", 3), (f"destinations,{_LONG}\noffsets,1\n", 1),
], ids=["source_label", "destination_label"])
def test_a_label_over_the_csv_field_limit_is_a_parse_error(text, line):
    # a quote-free text, but a line over the limit sends it through csv
    with pytest.raises(ParseError) as err:
        parse_build_matrix(text)
    limit = csv.field_size_limit()
    assert str(err.value) == f"line {line}: field larger than field limit ({limit})"


def test_a_header_line_over_the_csv_field_limit_is_read_without_csv(monkeypatch):
    # 14,000 labels of 9 characters: the header line is over the limit, no field is
    n_dest, rng = 14_000, random.Random(29)
    labels = ",".join(f"dest{j:05d}" for j in range(n_dest))
    rows = [f"s{i},{i}," + ",".join(str(rng.randint(1, 999)) if rng.random() < 0.01 else ""
                                    for _ in range(n_dest)) for i in range(3)]
    text = "\n".join([f"destinations,{labels}",
                      f"offsets,{','.join(str(j + 1) for j in range(n_dest))}", *rows]) + "\n"
    assert len(text.split("\n", 1)[0]) > csv.field_size_limit()
    expected = parse_build_matrix('"destinations"' + text.removeprefix("destinations"))
    monkeypatch.setattr(matrix_io.csv, "reader", _raising_reader)
    assert parse_build_matrix(text) == expected
    assert len(expected.destination_labels) == n_dest and expected.rows[2].cells


@pytest.mark.parametrize("where", ["destination", "source"])
def test_emit_refuses_a_label_over_the_csv_field_limit(where):
    limit = csv.field_size_limit()

    def matrix(label: str) -> BuildMatrix:
        dest, source = (label, "S") if where == "destination" else ("A", label)
        return BuildMatrix((dest,), (1,), (MatrixRow(source, 0, ((0, 5),)),))

    with pytest.raises(ValueError) as err:
        emit_build_matrix(matrix("L" * (limit + 1)))
    line = 1 if where == "destination" else 3
    assert str(err.value) == (f"matrix does not read back: line {line}: "
                              f"field larger than field limit ({limit})")
    at_limit = matrix("L" * limit)
    assert parse_build_matrix(emit_build_matrix(at_limit)) == at_limit


@pytest.mark.parametrize("matrix, where", [
    (BuildMatrix((7,), (1,), ()), "header"),
    (BuildMatrix((0,), (1,), ()), "header"),
    (BuildMatrix(("A",), (1,), (MatrixRow(7, 0, ()),)), "row 7"),
    (BuildMatrix(("A",), (1,), (MatrixRow(b"S", 0, ((0, 5),)),)), "row b'S'"),
], ids=["destination", "falsy_destination", "source", "bytes_source"])
def test_emit_refuses_a_label_that_is_not_a_str(matrix, where):
    # written as text, each reads back as a str; the CR check reads a label as text too
    with pytest.raises(ValueError) as err:
        emit_build_matrix(matrix)
    assert str(err.value) == f"matrix does not read back: {where} differs"


def test_two_cells_of_one_weight_keep_their_columns():
    matrix = parse_build_matrix("destinations,A,B,C,D\noffsets,1,2,3,4\nS,0,,15,,15\n")
    assert matrix.rows == (MatrixRow("S", 0, ((1, 15), (3, 15))),)
    g, violations = build_graph(matrix)
    assert violations == [Violation("EqualAdjacentWeight",
                                    "source 'S' already has an edge of weight 15")]
    assert [(g.node(e.dst).label, e.weight) for e in g.edges] == [("B", 15)]


# a column is exactly an int, as a node id is: True would index column 1; [0] is unhashable
NO_COLUMNS = [-1, 2, 0.0, 1.0, "0", True, pytest.param([0], id="unhashable")]


@pytest.mark.parametrize("column", NO_COLUMNS)
def test_build_graph_records_a_cell_in_no_column(column):
    # parsing never yields such a cell, but a hand-built row can
    row = MatrixRow("S", 0, ((0, 5), (column, 7), (1, 9)))
    g, violations = build_graph(BuildMatrix(("A", "B"), (1, 2), (row,)))
    assert violations == [Violation("UnknownNode", f"no destination in column {column!r}")]
    assert [(g.node(e.dst).label, e.weight) for e in g.edges] == [("A", 5), ("B", 9)]


@pytest.mark.parametrize("column", NO_COLUMNS)
def test_emit_refuses_a_cell_in_no_column(column):
    # column -1 would land on the last destination, and 2 is past the end
    row = MatrixRow("S", 0, ((0, 5), (column, 7)))
    with pytest.raises(ValueError) as err:
        emit_build_matrix(BuildMatrix(("A", "B"), (1, 2), (row,)))
    assert str(err.value) == "matrix does not read back: row 'S' differs"


class _Seven(enum.IntEnum):
    """An int subclass written as 7: it reads back equal to the int 7, but not by repr."""

    SEVEN = 7
    __str__ = int.__repr__  # as on Python 3.11, on every version


@pytest.mark.parametrize("place, value, message", [
    ("weight", 1.5, "line 3: cell '1.5' is not an integer"),
    ("weight", True, "line 3: cell 'True' is not an integer"),
    ("weight", "7", "row 'S' differs"),
    ("source offset", 1.5, "line 3: source offset '1.5' is not an integer"),
    ("source offset", True, "line 3: source offset 'True' is not an integer"),
    ("source offset", "7", "row 'S' differs"),
    ("destination offset", 1.5, "line 2: offset '1.5' is not an integer"),
    ("destination offset", True, "line 2: offset 'True' is not an integer"),
    ("destination offset", "7", "header differs"),
    ("weight", _Seven.SEVEN, "row 'S' differs"),
], ids=[*(f"{place}-{value}" for place in ("weight", "source offset", "destination offset")
          for value in (1.5, True, "7")), "weight-IntEnum"])
def test_emit_refuses_a_number_that_is_not_an_int(place, value, message):
    # written as it is, a float or bool reads back as NonIntegerCell, a str digit as an int
    weight, source_offset, offsets = 7, 0, (1, 2)
    if place == "weight":
        weight = value
    elif place == "source offset":
        source_offset = value
    else:
        offsets = (1, value)
    row = MatrixRow("S", source_offset, ((0, 5), (1, weight)))
    with pytest.raises(ValueError) as err:
        emit_build_matrix(BuildMatrix(("A", "B"), offsets, (row,)))
    assert str(err.value) == f"matrix does not read back: {message}"


@pytest.mark.parametrize("labels, offsets, source_offsets, message", [
    (("A", ""), (1, 2), (), "line 1: destination labels must be non-empty"),
    (("A", "B"), (1,), (), "line 2: 1 offsets for 2 destinations"),
    (("A",), (1, 2), (), "line 2: 2 offsets for 1 destinations"),
    (("A", "B"), (2, 2), (), "line 2: destination offset 2 repeated"),
    (("A", "B"), (2, 1), (), "line 2: destination offsets must increase, 1 after 2"),
    (("A",), (0,), (), "line 2: destination offsets must be positive"),
    (("A",), (1,), (3, 3), "line 4: source offset 3 repeated"),
    (("A",), (1,), (3, 2), "line 4: source offsets must increase, 2 after 3"),
], ids=["empty_label", "fewer_offsets", "more_offsets", "repeated_destination_offset",
        "descending_destination_offsets", "first_destination_offset_zero",
        "repeated_source_offset", "descending_source_offsets"])
def test_emit_refuses_a_header_or_offset_that_parse_refuses(labels, offsets, source_offsets,
                                                            message):
    # written, each would read back as MalformedHeader or DuplicateOffset
    rows = tuple(MatrixRow(f"S{i}", offset, ()) for i, offset in enumerate(source_offsets))
    with pytest.raises(ValueError) as err:
        emit_build_matrix(BuildMatrix(labels, offsets, rows))
    assert str(err.value) == f"matrix does not read back: {message}"


@pytest.mark.parametrize("matrix, where", [
    (BuildMatrix(["A"], [1], [MatrixRow("S", 0, [(0, 5)])]), "header"),
    (BuildMatrix(("A",), (1,), [MatrixRow("S", 0, ((0, 5),))]), "row tuple"),
    (BuildMatrix(("A",), (1,), (MatrixRow("S", 0, [(0, 5)]),)), "row 'S'"),
    (BuildMatrix(("A",), (1,), (MatrixRow("S", 0, ([0, 5],)),)), "row 'S'"),
], ids=["every_field", "rows", "cells", "cell"])
def test_emit_refuses_a_matrix_of_lists(matrix, where):
    # a BuildMatrix holds tuples: written, a list reads back as a tuple of the same items
    with pytest.raises(ValueError) as err:
        emit_build_matrix(matrix)
    assert str(err.value) == f"matrix does not read back: {where} differs"


def test_a_negative_source_offset_is_written_and_read_back():
    matrix = BuildMatrix(("A",), (1,), (MatrixRow("S", -1, ((0, 5),)),))
    assert parse_build_matrix(emit_build_matrix(matrix)) == matrix
    assert build_graph(matrix)[1] == [Violation("InvalidNode",
                                                "offset must be non-negative, got -1")]


@pytest.mark.parametrize("cells, details, edges", [
    (((0, 5), (0, 3), (1, 7)), ["column 0 after column 0"], [("A", 5), ("B", 7)]),
    (((1, 5), (0, 3), (1, 7)), ["column 0 after column 1", "column 1 after column 1"],
     [("B", 5)]),
], ids=["repeated", "descending"])
def test_build_graph_records_a_column_not_past_the_one_before_it(cells, details, edges):
    # parsing never yields such a row, but a hand-built one can; merged, a
    # repeated column would be two parallel edges
    row = MatrixRow("S", 0, cells)
    g, violations = build_graph(BuildMatrix(("A", "B"), (1, 2), (row,)))
    assert violations == [Violation("RaggedRow", detail) for detail in details]
    assert [(g.node(e.dst).label, e.weight) for e in g.edges] == edges


@pytest.mark.parametrize("cells", [((0, 5), (0, 3)), ((1, 5), (0, 3))],
                         ids=["repeated", "descending"])
def test_emit_refuses_a_column_not_past_the_one_before_it(cells):
    # written, a repeated column keeps only its last weight and a descending pair ascends
    row = MatrixRow("S", 0, cells)
    with pytest.raises(ValueError) as err:
        emit_build_matrix(BuildMatrix(("A", "B"), (1, 2), (row,)))
    assert str(err.value) == "matrix does not read back: row 'S' differs"


def _build_cell_by_cell(matrix: BuildMatrix) -> tuple[ConicGraph, list[Violation]]:
    """The reference for build_graph: every cell through add_edge, as before
    a clean row was added in one step, with the rule that a cell's column
    exceeds the one before it."""
    g, violations = ConicGraph(), []

    def attempt(add, *args):
        try:
            return add(*args)
        except ConicRouteError as exc:
            violations.append(Violation(type(exc).__name__, str(exc)))
        except ValueError as exc:
            violations.append(Violation("InvalidNode", str(exc)))

    source_ids = [attempt(g.add_node, row.source_label, NodeKind.SOURCE, row.source_offset)
                  for row in matrix.rows]
    dest_ids = [attempt(g.add_node, label, NodeKind.DESTINATION, offset)
                for label, offset in zip(matrix.destination_labels, matrix.destination_offsets)]
    for src, row in zip(source_ids, matrix.rows):
        if src is None:
            continue
        last = -1
        for column, weight in row.cells:
            if not 0 <= column < len(dest_ids):
                violations.append(Violation("UnknownNode", f"no destination in column {column}"))
            elif column <= last:
                violations.append(Violation("RaggedRow", f"column {column} after column {last}"))
            else:
                last = column
                if dest_ids[column] is not None:
                    attempt(g.add_edge, src, dest_ids[column], weight)
    return g.freeze(), violations


@st.composite
def hand_built_matrices(draw) -> BuildMatrix:
    """Matrices whose rows are often clean, and otherwise break one rule a
    row step must leave to add_edge: a weight that is a bool, a float, 0,
    negative or repeated, a column out of range or repeated. Their nodes are
    often clean too, and otherwise break one rule a node step must leave to
    add_node: an empty label or one not a str, a label given twice (within a
    kind or by a source and a destination), an offset that is a bool, a float
    or negative, or an offset given twice within a kind."""
    n_dest, n_src = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    labels = draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=n_dest + n_src,
                           max_size=n_dest + n_src, unique=True))
    offsets = [*range(1, n_dest + 1), *range(n_src)]
    if labels and draw(st.booleans()):  # a spoiled node
        at = draw(st.integers(0, len(labels) - 1))
        kin = range(n_dest) if at < n_dest else range(n_dest, len(labels))
        spoil = draw(st.sampled_from(["empty", "label", "offset", "repeat"]))
        if spoil == "empty":  # or not a str
            labels[at] = draw(st.sampled_from(["", 7]))
        elif spoil == "label":  # another node's, of either kind
            labels[at] = labels[draw(st.integers(0, len(labels) - 1))]
        elif spoil == "offset":
            offsets[at] = draw(st.sampled_from([True, False, 2.0, 0.5, -1]))
        else:  # another node's of its kind
            offsets[at] = offsets[draw(st.sampled_from(kin))]
    rows = []
    for label, offset in zip(labels[n_dest:], offsets[n_dest:]):
        columns = sorted(draw(st.sets(st.integers(0, max(n_dest - 1, 0)), max_size=n_dest)))
        weights = draw(st.lists(st.integers(1, 99), min_size=len(columns),
                                max_size=len(columns), unique=True))
        cells = list(zip(columns, weights))
        bad = st.sampled_from([True, False, 2.0, 0.5, 0, -3, *weights])
        if cells and draw(st.booleans()):  # a spoiled weight
            at = draw(st.integers(0, len(cells) - 1))
            cells[at] = (cells[at][0], draw(bad))
        if draw(st.booleans()):  # a stray cell
            cells.insert(draw(st.integers(0, len(cells))),
                         (draw(st.integers(-1, n_dest)), draw(st.integers(1, 99) | bad)))
        rows.append(MatrixRow(label, offset, tuple(cells)))
    return BuildMatrix(tuple(labels[:n_dest]), tuple(offsets[:n_dest]), tuple(rows))


def _one_row(*cells, labels=("A", "B"), source="s") -> BuildMatrix:
    return BuildMatrix(labels, tuple(range(1, len(labels) + 1)), (MatrixRow(source, 0, cells),))


@settings(max_examples=400)
@given(hand_built_matrices())
@example(_one_row((0, True), (1, 3)))  # a bool weight
@example(_one_row((0, 2.0), (1, 3)))  # a float weight
@example(_one_row((0, 0), (1, 3)))  # a weight of 0
@example(_one_row((0, -4), (1, 3)))  # a negative weight
@example(_one_row((0, 5), (1, 5)))  # a weight repeated within the row
@example(_one_row((0, 5), (2, 3)))  # a column past the destinations
@example(_one_row((-1, 5), (1, 3)))  # a column before them
@example(_one_row((0, 5), (0, 3), (1, 7)))  # a repeated column
@example(_one_row((0, 5), (1, 3), labels=("A", "A")))  # a destination's add_node fails
@example(BuildMatrix(("A",), (1,), (MatrixRow("s", 0, ((0, 5),)),
                                    MatrixRow("s", 1, ((0, 3),)))))  # a source's fails
@example(_one_row((0, 5), (1, 3), labels=("A", "")))  # an empty destination label
@example(_one_row((0, 5), (1, 3), source=""))  # an empty source label
@example(_one_row((0, 5), (1, 3), source="B"))  # a label of a source and a destination
@example(BuildMatrix(("A", "B"), (1, True), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # a bool
@example(BuildMatrix(("A", "B"), (1, 2.0), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # a float
@example(BuildMatrix(("A", "B"), (-1, 2), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # negative
@example(BuildMatrix(("A", "B"), (2, 2), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # repeated
@example(BuildMatrix(("A",), (1,), (MatrixRow("s", 0, ((0, 5),)),
                                    MatrixRow("t", 0, ((0, 3),)))))  # a source offset twice
@example(_one_row((0, 5), (1, 3), labels=("A", 7)))  # a label that is not a str
@example(BuildMatrix(("A", "B"), (1,), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # one offset
@example(BuildMatrix(("A",), (1, 2), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # one label
@example(BuildMatrix(("A", "B"), (2, 1), (MatrixRow("s", 0, ((0, 5), (1, 3))),)))  # descending
def test_build_graph_equals_the_cell_by_cell_reference(matrix):
    g, violations = build_graph(matrix)
    want, want_violations = _build_cell_by_cell(matrix)
    assert violations == want_violations
    assert g.nodes == want.nodes
    assert g.edges == want.edges
    assert all(g.out_edges(n.id) == want.out_edges(n.id) for n in g.nodes)
    assert all(g._original[n.id] == want._original[n.id] for n in g.nodes)


def _clean_matrix(rng: random.Random, n_src: int, n_dest: int, fanout: int) -> BuildMatrix:
    rows = tuple(MatrixRow(f"s{i}", i, tuple(zip(sorted(rng.sample(range(n_dest), fanout)),
                                                 rng.sample(range(1, 10_000), fanout))))
                 for i in range(n_src))
    return BuildMatrix(tuple(f"d{j}" for j in range(n_dest)),
                       tuple(range(1, n_dest + 1)), rows)


def test_only_a_row_with_a_bad_cell_calls_add_edge(monkeypatch, matrix_text):
    calls, add_edge = [], ConicGraph.add_edge

    def counting(self, src, dst, weight):
        calls.append(src)
        return add_edge(self, src, dst, weight)

    monkeypatch.setattr(ConicGraph, "add_edge", counting)
    assert to_graph(parse_build_matrix(matrix_text)).edge_count == 8
    clean = _clean_matrix(random.Random(24), 30, 100, 20)
    assert to_graph(clean).edge_count == 600
    assert calls == []
    rows = list(clean.rows)
    rows[7] = MatrixRow("s7", 7, ((rows[7].cells[0][0], 0), *rows[7].cells[1:]))
    g, violations = build_graph(BuildMatrix(clean.destination_labels,
                                            clean.destination_offsets, tuple(rows)))
    assert [v.code for v in violations] == ["NonPositiveWeight"]
    assert g.edge_count == 599
    assert calls == [label_id(g, "s7")] * 20


def test_only_a_matrix_with_a_bad_node_calls_add_node(monkeypatch, matrix_text):
    calls, add_node = [], ConicGraph.add_node

    def counting(self, label, kind, offset):
        calls.append(kind)
        return add_node(self, label, kind, offset)

    monkeypatch.setattr(ConicGraph, "add_node", counting)
    assert to_graph(parse_build_matrix(matrix_text)).node_count == 12
    clean = _clean_matrix(random.Random(29), 30, 100, 20)
    assert to_graph(clean).node_count == 130
    assert calls == []
    labels = list(clean.destination_labels)
    labels[5] = ""
    g, violations = build_graph(BuildMatrix(tuple(labels), clean.destination_offsets,
                                            clean.rows))
    assert violations == [Violation("InvalidNode", "node label must be non-empty")]
    assert g.node_count == 129
    assert calls == [NodeKind.DESTINATION] * 100


def test_roundtrip_is_lossless(matrix_text):
    matrix = parse_build_matrix(matrix_text)
    g = to_graph(matrix)
    again = from_graph(g)
    assert again == matrix
    assert emit_build_matrix(again) == matrix_text


def test_roundtrip_preserves_edge_multiset(matrix_text):
    g = to_graph(parse_build_matrix(matrix_text))
    g2 = to_graph(from_graph(g))
    edges = lambda graph: sorted(
        (graph.node(e.src).label, graph.node(e.dst).label, e.weight)
        for e in graph.edges
    )
    assert edges(g2) == edges(g)


def test_roundtrip_random_conic_graphs():
    import random

    from conftest import random_conic

    rng = random.Random(606)
    for _ in range(40):
        g = random_conic(rng)
        text = emit_build_matrix(from_graph(g))
        g2 = to_graph(parse_build_matrix(text))
        edges = lambda graph: sorted(
            (graph.node(e.src).label, graph.node(e.dst).label, e.weight)
            for e in graph.edges
        )
        assert edges(g2) == edges(g)
        assert emit_build_matrix(from_graph(g2)) == text


def populated(cells) -> tuple[tuple[int, int], ...]:
    """The (column, weight) pairs of a dense row, None meaning no edge."""
    return tuple((column, w) for column, w in enumerate(cells) if w is not None)


@st.composite
def matrices(draw, valid: bool) -> BuildMatrix:
    """A build matrix; when valid, one that to_graph accepts whole."""
    n_dest, n_src = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    labels = draw(st.lists(st.text(min_size=1), min_size=n_dest + n_src,
                           max_size=n_dest + n_src, unique=True))
    if not valid:  # parsing alone accepts any source label and any integers
        labels[n_dest:] = draw(st.lists(st.text(), min_size=n_src, max_size=n_src))

    def ascending(low: int, size: int) -> tuple[int, ...]:
        return tuple(sorted(draw(st.sets(st.integers(low, 10**9), min_size=size,
                                         max_size=size))))

    cell = st.integers(1, 10**30) if valid else st.integers(-10**30, 10**30)
    rows = []
    for label, offset in zip(labels[n_dest:], ascending(0 if valid else -10**9, n_src)):
        weights = draw(st.lists(cell, min_size=n_dest, max_size=n_dest, unique=valid))
        present = draw(st.lists(st.booleans(), min_size=n_dest, max_size=n_dest))
        rows.append(MatrixRow(label, offset, populated(
            w if keep else None for w, keep in zip(weights, present))))
    return BuildMatrix(tuple(labels[:n_dest]), ascending(1, n_dest), tuple(rows))


@settings(max_examples=200)
@given(matrices(valid=False))
def test_parse_reads_back_every_emitted_matrix(matrix):
    assert parse_build_matrix(emit_build_matrix(matrix)) == matrix


@settings(max_examples=200)
@given(matrices(valid=True))
def test_from_graph_reads_back_every_built_matrix(matrix):
    assert from_graph(to_graph(matrix)) == matrix


# parts that look like a label, offset, column or weight and are not one, or not here
_OFF_TYPE = (st.sampled_from([True, False, 0.0, 1.0, 2.5, "0", "7", b"A", None, [0]])
             | st.integers(-2, 6) | st.text(max_size=2))


@st.composite
def loose_matrices(draw) -> BuildMatrix:
    """A matrix that parse accepts, with up to three parts swapped for _OFF_TYPE."""
    base = draw(matrices(valid=False))
    labels, offsets = list(base.destination_labels), list(base.destination_offsets)
    rows = [[row.source_label, row.source_offset, [list(cell) for cell in row.cells]]
            for row in base.rows]
    slots = [*((labels, i) for i in range(len(labels))),  # (a list, an index in it)
             *((offsets, i) for i in range(len(offsets))),
             *((part, i) for row in rows for part in (row, *row[2]) for i in (0, 1))]
    for _ in range(draw(st.integers(0, 3)) if slots else 0):
        part, at = draw(st.sampled_from(slots))
        part[at] = draw(_OFF_TYPE)
    return BuildMatrix(tuple(labels), tuple(offsets), tuple(
        MatrixRow(label, offset, tuple(map(tuple, cells))) for label, offset, cells in rows))


@settings(max_examples=300)
@given(loose_matrices())
@example(BuildMatrix(("A", "B"), (1, 2), (MatrixRow("S", 0, ((True, 5),)),)))
@example(BuildMatrix(("A",), (1,), (MatrixRow("S", 0, (([0], 5),)),)))  # unhashable
def test_emit_returns_only_text_that_reads_back_as_its_matrix(matrix):
    try:
        text = emit_build_matrix(matrix)
    except ValueError as exc:  # and no other exception
        assert str(exc).startswith("matrix does not read back: ")
        return
    assert repr(parse_build_matrix(text)) == repr(matrix)


@settings(max_examples=200)
@given(parallel_conic_graphs())
@example(_parallel_graph()[0])  # s reaches d by 3 and by 5: the cell is 3
def test_roundtrip_keeps_distances_over_parallel_edges(g):
    again = to_graph(from_graph(g))
    for source in g.sources():
        dist = shortest_paths(g, source.id).dist
        dist_again = shortest_paths(again, label_id(again, source.label)).dist
        assert {node.label: dist[node.id] for node in g.nodes} == {
            node.label: dist_again[node.id] for node in again.nodes}


def _inventions_by_label(g) -> dict:
    label = {node.id: node.label for node in g.nodes}
    return {label[origin]: [(label[e.src], label[e.dst], e.weight, e.pair_weights)
                            for e in inventions]
            for origin, inventions in invent_all(g).items()}


@settings(max_examples=300)
@given(parallel_conic_graphs())
@example(_later_lighter_graph())  # e -> d from (1, 3) on both sides of the round trip
def test_roundtrip_keeps_inventions_over_parallel_edges(g):
    assert _inventions_by_label(to_graph(from_graph(g))) == _inventions_by_label(g)


@pytest.mark.parametrize("with_source", [False, True], ids=["no_source", "source"])
def test_from_graph_refuses_an_unfrozen_graph(with_source):
    g = ConicGraph()
    d = g.add_node("d", NodeKind.DESTINATION, 1)
    if with_source:
        g.add_edge(g.add_node("s", NodeKind.SOURCE, 0), d, 3)
    with pytest.raises(GraphNotFrozen):
        from_graph(g)


@st.composite
def canonical_texts(draw) -> str:
    """The text emit_build_matrix writes for a matrix whose numbers run up to
    the 4,300 digits the grammar reads."""
    n_dest, n_src = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    positive = st.integers(1, 10**4300 - 1)
    number = positive | positive.map(lambda w: -w) | st.just(0)
    offsets = sorted(draw(st.sets(positive, min_size=n_dest, max_size=n_dest)))
    rows = [MatrixRow(draw(st.text()), offset, populated(
                draw(st.lists(st.none() | number, min_size=n_dest, max_size=n_dest))))
            for offset in sorted(draw(st.sets(number, min_size=n_src, max_size=n_src)))]
    labels = draw(st.lists(st.text(min_size=1), min_size=n_dest, max_size=n_dest))
    return emit_build_matrix(BuildMatrix(tuple(labels), tuple(offsets), tuple(rows)))


@settings(max_examples=150)
@given(canonical_texts())
@example("destinations,A\noffsets,1\nS,-" + "9" * 4300 + "," + "9" * 4300 + "\n")
def test_every_canonical_text_survives_a_parse_and_emit(text):
    assert emit_build_matrix(parse_build_matrix(text)) == text


def test_parse_hidden_paths(hospital_graph):
    text = "from,to,true_weight\nCMC,MC,500\nPC,SC,100\n"
    paths = parse_hidden_paths(text, hospital_graph)
    assert len(paths) == 2
    cmc, mc = label_id(hospital_graph, "CMC"), label_id(hospital_graph, "MC")
    path = paths[frozenset((mc, cmc))]  # keyed by the unordered pair
    assert (path.src, path.dst, path.true_weight) == (cmc, mc, 500)


def test_parse_hidden_paths_errors(hospital_graph):
    with pytest.raises(MalformedHeader):
        parse_hidden_paths("a,b,c\n", hospital_graph)
    with pytest.raises(ParseError) as err:
        parse_hidden_paths("from,to,true_weight\nNOPE,MC,10\n", hospital_graph)
    assert err.value.line == 2
    with pytest.raises(RaggedRow):
        parse_hidden_paths("from,to,true_weight\nCMC,MC\n", hospital_graph)
    with pytest.raises(NonIntegerCell):
        parse_hidden_paths("from,to,true_weight\nCMC,MC,4.5\n", hospital_graph)
    # a whole but non-positive weight is no malformed cell
    with pytest.raises(ParseError) as err:
        parse_hidden_paths("from,to,true_weight\nCMC,MC,-4\n", hospital_graph)
    assert type(err.value) is ParseError
    assert str(err.value) == "line 2: true_weight must be positive, got -4"
    # hidden paths join destinations, never sources
    with pytest.raises(ParseError):
        parse_hidden_paths("from,to,true_weight\nRumuomasi,MC,10\n", hospital_graph)
    # a destination paired with itself can never grade an invention
    with pytest.raises(ParseError) as err:
        parse_hidden_paths("from,to,true_weight\nCMC,CMC,5\n", hospital_graph)
    assert type(err.value) is ParseError
    assert str(err.value) == "line 2: hidden path joins 'CMC' to itself"
    # one path per unordered pair, in either orientation
    for repeat in ("CMC,MC,7", "MC,CMC,7"):
        with pytest.raises(ParseError) as err:
            parse_hidden_paths(f"from,to,true_weight\nCMC,MC,10\nPC,SC,3\n{repeat}\n",
                               hospital_graph)
        assert err.value.line == 4
        assert str(err.value).endswith("first given on line 2")
    # a quoted field that spans lines moves every later line; a number holds
    # no newline, so the field is a label
    spanning = to_graph(parse_build_matrix('destinations,"C\nMC",MC,PC\noffsets,1,2,3\n'))
    with pytest.raises(ParseError) as err:
        parse_hidden_paths('from,to,true_weight\n"C\nMC",MC,10\nNOPE,MC,1\n', spanning)
    assert str(err.value) == "line 4: no node labelled 'NOPE'"
    with pytest.raises(ParseError) as err:
        parse_hidden_paths('from,to,true_weight\n"C\nMC",PC,3\nMC,PC,10\nPC,MC,7\n',
                           spanning)
    assert err.value.line == 5
    assert str(err.value).endswith("first given on line 4")


def test_build_graph_flags_malformed_node_definitions():
    text = "destinations,A,B\noffsets,1,2\n,0,10,20\n"
    g, violations = build_graph(parse_build_matrix(text))
    assert [v.code for v in violations] == ["InvalidNode"]
    assert len(g.sources()) == 0  # the unlabelled row was dropped
