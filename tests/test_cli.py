"""CLI behaviour: subcommands, output formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import csv
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conicroute
from conicroute import cli
from conicroute.cli import main
from conicroute.contraction import Overlay, Shortcut
from conicroute.dijkstra import PathResult, SearchState
from conicroute.graph import ConicGraph, Edge, Node, NodeKind, Provenance, Violation
from conicroute.invention import (
    FitnessReport,
    HiddenPath,
    InventedEdge,
    PolicyThreshold,
    fitness,
)
from conicroute.matrix_io import BuildMatrix, MatrixRow

from conftest import HIDDEN_PATH, MATRIX_PATH

MATRIX = str(MATRIX_PATH)
HIDDEN = str(HIDDEN_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_worked_example(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi")
    assert code == 0
    payload = json.loads(out)
    assert payload["best"] == {
        "destination": "CMC", "distance": 312, "path": ["Rumuomasi", "CMC"],
    }
    assert payload["invented_alternates"] == [{
        "from": "CMC", "to": "MC", "weight": 459,
        "pair_weights": [312, 771], "fitness": None,
    }]


def test_query_woji(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Woji")
    assert code == 0
    payload = json.loads(out)
    assert payload["best"]["destination"] == "CU"
    assert payload["best"]["distance"] == 472
    (alt,) = payload["invented_alternates"]
    assert (alt["from"], alt["to"], alt["weight"]) == ("CU", "PI", 494)


def test_query_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi")
    _, second, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi")
    assert first == second


def test_query_unknown_source_exits_3(capsys):
    code, _, err = run(capsys, "query", MATRIX, "--source", "Nowhere")
    assert code == 3
    assert "Nowhere" in err


def test_query_unreachable_source_exits_3(tmp_path, capsys):
    isolated = tmp_path / "isolated.csv"
    isolated.write_text("destinations,A\noffsets,1\nS1,0,10\nS2,1,\n")
    code, _, err = run(capsys, "query", str(isolated), "--source", "S2")
    assert code == 3
    assert "reaches no destination" in err


def test_query_destination_label_exits_3(capsys):
    code, _, err = run(capsys, "query", MATRIX, "--source", "CMC")
    assert code == 3
    assert "destination" in err


def test_query_with_hidden_paths_reports_fitness(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                       "--hidden", HIDDEN, "--tolerance", "0.1")
    assert code == 0
    fitness = json.loads(out)["invented_alternates"][0]["fitness"]
    assert fitness == {
        "invented_weight": 459, "hidden_weight": 500,
        "absolute_error": 41, "relative_error": 0.082, "fit": True,
    }


def test_query_hidden_unfit_pair(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Runmuogba",
                       "--hidden", HIDDEN)
    assert code == 0
    fitness = json.loads(out)["invented_alternates"][0]["fitness"]
    assert fitness["fit"] is False
    assert fitness["relative_error"] == 0.92


def test_query_no_invent(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi", "--no-invent")
    assert code == 0
    assert json.loads(out)["invented_alternates"] == []


def test_query_allowable_gate(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                       "--allowable", "100")
    assert code == 0
    assert json.loads(out)["invented_alternates"] == []


def test_query_all_sources(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--all-sources")
    assert code == 0
    payload = json.loads(out)
    assert [r["source"] for r in payload] == [
        "Rumuomasi", "Runmuogba", "Woji", "Ogunabali",
    ]
    assert [r["invented_alternates"][0]["weight"] for r in payload] == [459, 8, 494, 54]


def test_query_table_format(capsys):
    code, out, _ = run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                       "--format", "table")
    assert code == 0
    assert "best: CMC  distance 312" in out
    assert "CMC -> MC  weight 459" in out


def test_query_sources_inventing_opposite_orientations(tmp_path, capsys):
    # the two sources invent opposite orientations over the same pair, and
    # each query still reports its own source's best destination
    cross = tmp_path / "cross.csv"
    cross.write_text("destinations,D1,D2\noffsets,1,2\nA,0,10,20\nB,1,25,12\n")
    for label, best in (("A", 10), ("B", 12)):
        code, out, _ = run(capsys, "query", str(cross), "--source", label)
        assert code == 0
        assert json.loads(out)["best"]["distance"] == best


def test_build_dump(capsys):
    code, out, _ = run(capsys, "build", MATRIX)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 12
    assert len(payload["edges"]) == 8
    assert payload["edges"][0] == {
        "from": "Rumuomasi", "to": "CMC", "weight": 312, "provenance": "original",
    }


def test_validate_clean_fixture(capsys):
    code, out, _ = run(capsys, "validate", MATRIX)
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_validate_bad_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("destinations,A,B\noffsets,1,2\nS1,0,5,5\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["violations"][0]["code"] == "EqualAdjacentWeight"


def test_build_bad_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("destinations,A\noffsets,1\nS1,0,0\n")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "NonPositiveWeight" in err


@pytest.mark.parametrize("text", [
    "destinations,A,B\noffsets,1,2\nS,0,1_0, \u0663\n",
    "destinations,A,B\noffsets,+1,2\nS,0,+5,007\n",
], ids=["underscore_and_arabic_digit", "plus_signs"])
def test_number_outside_ascii_digits_exits_2_with_one_line(tmp_path, capsys, text):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "build", str(matrix))
    assert (code, out) == (2, "")
    assert err.startswith("conicroute: line 3: cell '1_0'" if "_" in text
                          else "conicroute: line 2: offset '+1'")
    assert err.count("\n") == 1


def _captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# any text outside the grammar of a number, -?[0-9]+ in ASCII, often made
# of the digits, signs, spaces and marks int() reads; the last example has
# more digits than int() converts
_NEAR_NUMBERS = st.lists(st.sampled_from([*"0123456789--+_ .e\t", "\u0663", "\uff15", "\u00b2"]),
                         max_size=6).map("".join)
_OUTSIDE_GRAMMAR = (st.text() | _NEAR_NUMBERS).filter(
    lambda text: not re.fullmatch(r"-?[0-9]+", text))
_PAST_INT_LIMIT = "9" * 4301


@settings(max_examples=150)
@given(field=st.sampled_from(["cell", "source offset", "offset", "true_weight"]),
       token=_OUTSIDE_GRAMMAR)
@example(field="cell", token=_PAST_INT_LIMIT)
@example(field="source offset", token=_PAST_INT_LIMIT)
@example(field="offset", token=_PAST_INT_LIMIT)
@example(field="true_weight", token=_PAST_INT_LIMIT)
def test_a_number_outside_the_grammar_exits_2_with_one_line(tmp_path_factory, field, token):
    assume(token or field != "cell")  # an empty cell is no edge
    rows = {"cell": [["destinations", "A", "B"], ["offsets", 1, 2], ["S", 0, 10, token]],
            "source offset": [["destinations", "A", "B"], ["offsets", 1, 2], ["S", token, 10, 20]],
            "offset": [["destinations", "A", "B"], ["offsets", 1, token], ["S", 0, 10, 20]],
            "true_weight": [["destinations", "A", "B"], ["offsets", 1, 2], ["S", 0, 10, 20]]}
    base = tmp_path_factory.getbasetemp()
    files = {"matrix": rows[field], "hidden": [["from", "to", "true_weight"], ["A", "B", token]]}
    for name, records in files.items():
        text = io.StringIO()
        # every field quoted, so the token is one whole field whatever it holds
        csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(records)
        (base / f"grammar_{name}.csv").write_text(text.getvalue(), encoding="utf-8")
    code, out, err = _captured(["query", str(base / "grammar_matrix.csv"), "--all-sources",
                                "--hidden", str(base / "grammar_hidden.csv")])
    assert (code, out) == (2, "")
    assert err.startswith("conicroute: line ") and err.count("\n") == 1


@settings(max_examples=150)
@given(_OUTSIDE_GRAMMAR)
@example("\u0663" "00")
@example(" 1_00")
@example(_PAST_INT_LIMIT)
def test_an_allowable_outside_the_grammar_exits_1_with_one_line(token):
    code, out, err = _captured(["invent", MATRIX, f"--allowable={token}"])
    assert (code, out) == (1, "")
    assert err.startswith("conicroute invent: error: argument --allowable: not an integer: ")
    assert err.count("\n") == 1


# the tolerance grammar, stated here on its own: unsigned ASCII, a ratio with
# a non-zero denominator, or a decimal with an exponent of at most four digits
_TOLERANCE = r"[0-9]+/0*[1-9][0-9]*|([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]{1,4})?"
_NEAR_RATIONALS = st.lists(st.sampled_from([*"0123456789/-+_ .eE\t", "\u0661", "\u066b",
                                            "\uff15", "\u00b2"]), max_size=8).map("".join)


@settings(max_examples=150)
@given((st.text() | _NEAR_RATIONALS).filter(lambda text: not re.fullmatch(_TOLERANCE, text)))
@example("1_0")
@example(" 0.1")
@example("+0.1")
@example("\u0660.\u0661")
@example("-1")
@example("1/0")
@example(_PAST_INT_LIMIT + "/1")  # inside the regex, past the digits int() converts
def test_a_tolerance_outside_the_grammar_exits_1_with_one_line(token):
    code, out, err = _captured(["query", MATRIX, "--source", "Rumuomasi", f"--tolerance={token}"])
    assert (code, out) == (1, "")
    assert err.startswith("conicroute query: error: argument --tolerance: not a rational number: ")
    assert err.count("\n") == 1
    # fitness() reads a str tolerance by the same rule
    with pytest.raises(ValueError):
        fitness(InventedEdge(origin=0, src=1, dst=2, weight=1, pair_weights=(1, 2)),
                HiddenPath(src=1, dst=2, true_weight=1), token)


def test_parse_error_names_line_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("destinations,A,B\noffsets,1,2\nS1,0,10\n")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "query", "no-such-file.csv", "--source", "X")
    assert code == 2
    assert "no-such-file.csv" in err


def test_usage_error_exits_1(capsys):
    for argv in (
        ("query", MATRIX),                          # neither --source nor --all-sources
        ("frobnicate", MATRIX),                     # unknown subcommand
        ("query", MATRIX, "--source", "X", "--tolerance", "fast"),  # non-rational tolerance
        ("query", MATRIX, "--source", "X", "--tolerance", "-1"),    # negative tolerance
        ("query", MATRIX, "--source", "X", "--allowable", "-3"),    # non-positive cap
        ("query", MATRIX, "--source", "X", "--allowable", "x"),     # non-integer cap
        # each subcommand takes only the flags it reads
        ("build", MATRIX, "--tolerance", "1"),
        ("export", MATRIX, "--format", "table"),
        ("invent", MATRIX, "--use-invented"),
        # neither contraction nor traversal of inventions can change a matrix's output
        ("query", MATRIX, "--source", "Rumuomasi", "--use-invented"),
        ("export", MATRIX, "--dot"),
        ("export", MATRIX, "--contract"),
        ("contract", MATRIX),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        # one line, with no usage block before it
        assert err.startswith("conicroute") and err.count("\n") == 1
        assert ": error: " in err


def test_every_declared_flag_is_read():
    """Each subcommand argument's ``dest`` is read as ``args.<dest>`` in cli.py.

    This catches a flag that no code reads. It cannot see a flag that is read
    but cannot change the output, as ``export --contract`` was: it ran
    ``build_hierarchy``, whose shortcuts on a matrix graph are always empty.
    """
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    subcommands, = (action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    unread = [f"{name} {action.option_strings or action.dest}"
              for name, parser in subcommands.items() for action in parser._actions
              if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    assert subcommands
    assert unread == []


@pytest.mark.parametrize("argv, code, expected", [
    (["build", MATRIX], 0, "node Rumuomasi  source  offset 0\n"),
    (["build", MATRIX], 0, "edge Rumuomasi -> CMC  weight 312\n"),
    (["validate", MATRIX], 0, "valid\n"),
    (["validate", "{bad}"], 2,
     "EqualAdjacentWeight: source 'S1' already has an edge of weight 5\n"),
    (["query", MATRIX, "--source", "Rumuomasi", "--no-invent"], 0,
     "best: CMC  distance 312  via Rumuomasi -> CMC\ninvented alternates: none\n"),
    (["query", "{isolated}", "--all-sources"], 0,
     "source: S2\nbest: (no reachable destination)\ninvented alternates: none\n"),
], ids=["build_nodes", "build_edges", "validate_clean", "validate_violation",
        "query_no_invent", "query_all_sources_unreachable"])
def test_table_format(tmp_path, capsys, argv, code, expected):
    bad, isolated = tmp_path / "bad.csv", tmp_path / "isolated.csv"
    bad.write_text("destinations,A,B\noffsets,1,2\nS1,0,5,5\n")
    isolated.write_text("destinations,A\noffsets,1\nS1,0,10\nS2,1,\n")  # S2 reaches nothing
    argv = [arg.format(bad=bad, isolated=isolated) for arg in argv]
    got = run(capsys, *argv, "--format", "table")
    assert got[0] == code and got[2] == ""
    assert expected in got[1]


def test_invent_command(capsys):
    code, out, _ = run(capsys, "invent", MATRIX)
    assert code == 0
    payload = json.loads(out)
    assert payload["Woji"] == [{
        "from": "CU", "to": "PI", "weight": 494, "pair_weights": [472, 966],
    }]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("files", ["fixture", "generated"])
def test_invent_writes_each_source_before_the_next_walk(tmp_path, monkeypatch, files, fmt):
    matrix = MATRIX if files == "fixture" else _generated_files(tmp_path, 20, 30)[0]
    out, written = io.StringIO(), []
    walk = cli.invent_for_source

    def recording_walk(graph, source, policy=None):
        written.append(out.tell())
        return walk(graph, source, policy)

    def batch(*args, **kwargs):
        raise AssertionError("invent called invent_all")

    monkeypatch.setattr(cli, "invent_for_source", recording_walk)
    monkeypatch.setattr(cli, "invent_all", batch)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["invent", matrix, "--format", fmt]) == 0
    assert len(written) == len(cli._load_graph(Path(matrix)).sources()) > 1
    assert all(before < after for before, after in zip(written, written[1:]))


_REPORT = FitnessReport(459, 450, 9, Fraction(1, 50), True)
_ALTERNATE_FIELDS = ("CMC", "MC", 459, (312, 771), _REPORT)
_ALTERNATE_TEXT = ("Alternate(src_label='CMC', dst_label='MC', weight=459, pair_weights=(312, "
                   "771), fitness=FitnessReport(invented_weight=459, hidden_weight=450, "
                   "absolute_error=9, relative_error=Fraction(1, 50), fit=True))")
_ROW_FIELDS = ("Rumuomasi", 0, ((0, 312), (1, 771)))
_ROW_TEXT = "MatrixRow(source_label='Rumuomasi', source_offset=0, cells=((0, 312), (1, 771)))"
_BASE = ConicGraph().freeze()  # an Overlay's repr holds its base graph's


@pytest.mark.parametrize("record, fields, text", [
    (InventedEdge, {"origin": 0, "src": 1, "dst": 2, "weight": 459, "pair_weights": (312, 771)},
     "InventedEdge(origin=0, src=1, dst=2, weight=459, pair_weights=(312, 771))"),
    (cli.Alternate, dict(zip(["src_label", "dst_label", "weight", "pair_weights", "fitness"],
                             _ALTERNATE_FIELDS)), _ALTERNATE_TEXT),
    (cli.QueryResult, {"source": "Rumuomasi", "best": ("CMC", 312, ["Rumuomasi", "CMC"]),
                       "invented_alternates": [cli.Alternate(*_ALTERNATE_FIELDS)]},
     "QueryResult(source='Rumuomasi', best=('CMC', 312, ['Rumuomasi', 'CMC']), "
     f"invented_alternates=[{_ALTERNATE_TEXT}])"),
    (Node, {"id": 0, "label": "Rumuomasi", "kind": NodeKind.SOURCE, "offset": 0},
     "Node(id=0, label='Rumuomasi', kind=<NodeKind.SOURCE: 'source'>, offset=0)"),
    (Edge, {"src": 0, "dst": 1, "weight": 312, "provenance": Provenance.SHORTCUT},
     "Edge(src=0, dst=1, weight=312, provenance=<Provenance.SHORTCUT: 'shortcut'>)"),
    (Violation, {"code": "RaggedRow", "detail": "column 1 after column 2"},
     "Violation(code='RaggedRow', detail='column 1 after column 2')"),
    (SearchState, {"source": 0, "dist": {0: 0, 1: 312}, "pred": {0: None, 1: 0},
                   "settled_order": [0, 1]},
     "SearchState(source=0, dist={0: 0, 1: 312}, pred={0: None, 1: 0}, settled_order=[0, 1])"),
    (PathResult, {"target": 1, "distance": 312, "nodes": (0, 1)},
     "PathResult(target=1, distance=312, nodes=(0, 1))"),
    (Shortcut, {"src": 0, "dst": 2, "weight": 7, "via": 1},
     "Shortcut(src=0, dst=2, weight=7, via=1)"),
    (Overlay, {"base": _BASE, "shortcuts": (Shortcut(0, 2, 7, 1),), "order": (0, 1, 2)},
     f"Overlay(base={_BASE!r}, shortcuts=(Shortcut(src=0, dst=2, weight=7, via=1),), "
     "order=(0, 1, 2))"),
    (MatrixRow, dict(zip(["source_label", "source_offset", "cells"], _ROW_FIELDS)), _ROW_TEXT),
    (BuildMatrix, {"destination_labels": ("CMC", "MC"), "destination_offsets": (1, 2),
                   "rows": (MatrixRow(*_ROW_FIELDS),)},
     "BuildMatrix(destination_labels=('CMC', 'MC'), destination_offsets=(1, 2), "
     f"rows=({_ROW_TEXT},))"),
    (HiddenPath, {"src": 1, "dst": 2, "true_weight": 450},
     "HiddenPath(src=1, dst=2, true_weight=450)"),
    (FitnessReport, dict(zip(["invented_weight", "hidden_weight", "absolute_error",
                              "relative_error", "fit"], _REPORT)),
     "FitnessReport(invented_weight=459, hidden_weight=450, absolute_error=9, "
     "relative_error=Fraction(1, 50), fit=True)"),
    (PolicyThreshold, {"allowable": 54}, "PolicyThreshold(allowable=54)"),
], ids=["InventedEdge", "Alternate", "QueryResult", "Node", "Edge", "Violation", "SearchState",
        "PathResult", "Shortcut", "Overlay", "MatrixRow", "BuildMatrix", "HiddenPath",
        "FitnessReport", "PolicyThreshold"])
def test_a_record_keeps_the_contract_of_the_dataclass_it_was(record, fields, text):
    by_keyword, by_position = record(**fields), record(*fields.values())
    assert by_keyword == by_position
    assert record._fields == tuple(fields)
    assert repr(by_keyword) == text
    with pytest.raises(AttributeError):
        setattr(by_keyword, record._fields[0], None)

    def hashed(value):  # a frozen dataclass hashed the tuple of its fields
        try:
            return hash(value)
        except TypeError:  # a field holds a list
            return TypeError

    assert hashed(by_keyword) == hashed(tuple(fields.values()))
    # new with the tuple form: equal to, unpacked and indexed as that tuple
    assert by_keyword == tuple(fields.values()) == tuple(by_keyword)
    assert by_keyword[-1] == list(fields.values())[-1]


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", MATRIX, "--invent")
    assert code == 0
    assert out.startswith("digraph conic {")
    assert 'CMC -> MC [label="459", style=dotted];' in out
    _, again, _ = run(capsys, "export", MATRIX, "--invent")
    assert again == out


def test_export_table_smoke(capsys):
    code, out, _ = run(capsys, "invent", MATRIX, "--format", "table")
    assert code == 0
    assert "Rumuomasi: CMC->MC (459)" in out


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    matrix, hidden = tmp_path / "matrix.csv", tmp_path / "hidden.csv"
    matrix.write_bytes(b"\xef\xbb\xbf" + MATRIX_PATH.read_bytes())
    hidden.write_bytes(b"\xef\xbb\xbf" + HIDDEN_PATH.read_bytes())
    for plain_args, marked_args in (
        (["build", MATRIX], ["build", str(matrix)]),
        (["validate", MATRIX], ["validate", str(matrix)]),
        (["query", MATRIX, "--all-sources", "--hidden", HIDDEN],
         ["query", str(matrix), "--all-sources", "--hidden", str(hidden)]),
    ):
        plain = run(capsys, *plain_args)
        assert plain[0] == 0
        assert run(capsys, *marked_args) == plain


def test_crlf_and_cr_line_ends_read_as_lf(tmp_path, capsys):
    plain = run(capsys, "query", MATRIX, "--all-sources", "--hidden", HIDDEN)
    assert plain[0] == 0
    matrix, hidden = tmp_path / "matrix.csv", tmp_path / "hidden.csv"
    for ending in (b"\r\n", b"\r"):
        matrix.write_bytes(MATRIX_PATH.read_bytes().replace(b"\n", ending))
        hidden.write_bytes(HIDDEN_PATH.read_bytes().replace(b"\n", ending))
        assert run(capsys, "query", str(matrix), "--all-sources", "--hidden", str(hidden)) == plain


def test_query_duplicate_hidden_pair_exits_2(tmp_path, capsys):
    hidden = tmp_path / "hidden.csv"
    hidden.write_text("from,to,true_weight\nCMC,MC,500\nPC,SC,100\nMC,CMC,459\n")
    code, out, err = run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                         "--hidden", str(hidden))
    assert code == 2
    assert out == ""
    assert "line 4" in err and "line 2" in err


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_relative_error_past_the_float_range_is_written_null(tmp_path, capsys, fmt):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("destinations,A,B\noffsets,1,2\ns,0,1,1" + "0" * 400 + "\n")
    hidden = tmp_path / "hidden.csv"
    hidden.write_text("from,to,true_weight\nA,B,1\n")
    code, out, err = run(capsys, "query", str(matrix), "--source", "s",
                         "--hidden", str(hidden), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "table":
        assert out.endswith("  A -> B  weight " + "9" * 400 + "  unfit\n")
        return
    fitness = json.loads(out, parse_constant=_no_constant)["invented_alternates"][0]["fitness"]
    assert fitness == {
        "invented_weight": 10**400 - 1, "hidden_weight": 1,
        "absolute_error": 10**400 - 2, "relative_error": None, "fit": False,
    }


def test_tolerance_exponent_past_the_limit_is_a_usage_error(capsys):
    # the grammar takes an exponent of at most four digits
    for text in ("1e10000", "1E-10000", "1e+10_000"):
        code, out, err = run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                             "--tolerance", text)
        assert (code, out) == (1, "")
        assert err == ("conicroute query: error: argument --tolerance: "
                       f"not a rational number: {text!r}\n")
    for text in ("1e9999", "1e-9999"):
        assert run(capsys, "query", MATRIX, "--source", "Rumuomasi",
                   "--tolerance", text)[0] == 0


@pytest.mark.parametrize("kind", ["not_utf8", "directory", "field_over_csv_limit"])
@pytest.mark.parametrize("role", ["matrix", "hidden"])
def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys, role, kind):
    valid = {"matrix": MATRIX_PATH, "hidden": HIDDEN_PATH}[role].read_bytes()
    path = tmp_path / f"{role}.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(valid.replace(b"\n", b"\n\xff", 1))  # line 2 opens with 0xff
    else:
        path.write_bytes(valid + b'"' + b"9" * 140_000 + b'"\n')
    files = {"matrix": MATRIX, "hidden": HIDDEN, role: str(path)}
    code, out, err = run(capsys, "query", files["matrix"], "--all-sources",
                         "--hidden", files["hidden"])
    assert code == 2
    assert out == ""
    assert err.startswith("conicroute: ") and err.count("\n") == 1
    if kind == "not_utf8":
        assert err.startswith("conicroute: line 2: not UTF-8")


def _spliced(valid: bytes):
    """Arbitrary bytes, or a valid file with a run of arbitrary bytes spliced in."""
    return st.one_of(
        st.binary(max_size=300),
        st.tuples(st.integers(0, len(valid)), st.integers(0, 40), st.binary(max_size=24)).map(
            lambda cut: valid[:cut[0]] + cut[2] + valid[cut[0] + cut[1]:]
        ),
    )


def _ends_cleanly(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # an escaping exception would be a traceback
    assert code in (0, 1, 2, 3)
    assert code == 0 or err.getvalue().startswith("conicroute: ")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150)
@given(_spliced(MATRIX_PATH.read_bytes()))
def test_any_matrix_bytes_end_in_a_documented_exit(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any_matrix.csv"
    path.write_bytes(data)
    for argv in (["build"], ["validate"], ["query", "--all-sources"], ["invent"],
                 ["export", "--invent"]):
        _ends_cleanly([argv[0], str(path), *argv[1:]])


@settings(max_examples=150)
@given(_spliced(HIDDEN_PATH.read_bytes()))
def test_any_hidden_path_bytes_end_in_a_documented_exit(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any_hidden.csv"
    path.write_bytes(data)
    _ends_cleanly(["query", MATRIX, "--all-sources", "--hidden", str(path)])


@settings(max_examples=150)
@given(_spliced(MATRIX_PATH.read_bytes()), _spliced(HIDDEN_PATH.read_bytes()))
def test_any_matrix_with_any_hidden_bytes_end_in_a_documented_exit(tmp_path_factory,
                                                                   matrix, hidden):
    base = tmp_path_factory.getbasetemp()
    (base / "paired_matrix.csv").write_bytes(matrix)
    (base / "paired_hidden.csv").write_bytes(hidden)
    _ends_cleanly(["query", str(base / "paired_matrix.csv"), "--all-sources",
                   "--hidden", str(base / "paired_hidden.csv")])


def _generated_files(tmp_path: Path, sources: int = 30,
                     destinations: int = 40) -> tuple[str, str]:
    """A sources x destinations matrix at 30% fill and hidden paths for every
    other column pair."""
    rng = random.Random(7)
    lines = ["destinations," + ",".join(f"D{j}" for j in range(destinations)),
             "offsets," + ",".join(str(j + 1) for j in range(destinations))]
    for i in range(sources):
        cells = [str(w) if rng.random() < 0.3 else ""
                 for w in rng.sample(range(1, 10_000), destinations)]
        lines.append(f"S{i},{i}," + ",".join(cells))
    matrix, hidden = tmp_path / "matrix.csv", tmp_path / "hidden.csv"
    matrix.write_text("\n".join(lines) + "\n")
    hidden.write_text("from,to,true_weight\n" + "".join(
        f"D{j},D{j + 1},{rng.randint(1, 9_999)}\n" for j in range(0, destinations - 1, 2)))
    return str(matrix), str(hidden)


def _child_stdout(argv: list[str], hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(Path(conicroute.__file__).parents[1]),
               PYTHONHASHSEED=hash_seed)
    child = subprocess.run(
        [sys.executable, "-c", "from conicroute.cli import entrypoint; entrypoint()", *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    return child.stdout


@pytest.mark.parametrize("command", [["query", "--all-sources", "--hidden"], ["invent"]],
                         ids=["query_all_sources_hidden", "invent"])
@pytest.mark.parametrize("files", ["fixture", "generated"])
def test_json_is_byte_identical_across_hash_seeds(tmp_path, command, files):
    matrix, hidden = (MATRIX, HIDDEN) if files == "fixture" else _generated_files(tmp_path)
    argv = [command[0], matrix, *command[1:]] + ([hidden] if "--hidden" in command else [])
    first = _child_stdout(argv, "1")
    assert first.startswith((b"[", b"{")) and first == _child_stdout(argv, "2")


@pytest.mark.parametrize("argv", [["query", MATRIX, "--all-sources"], ["export", MATRIX],
                                  ["invent", MATRIX], ["build", MATRIX]],
                         ids=["query_all_sources", "export", "invent", "build"])
def test_stdout_closed_by_its_reader_exits_0_quietly(argv):
    # the read end is closed before the child starts, so every write it
    # makes to stdout fails, whatever the output's size or buffering
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(conicroute.__file__).parents[1]))
    try:
        child = subprocess.run(
            [sys.executable, "-c", "from conicroute.cli import entrypoint; entrypoint()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 0
    assert child.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["query", MATRIX, "--all-sources"], ["export", MATRIX],
                                  ["invent", MATRIX], ["build", MATRIX]],
                         ids=["query_all_sources", "export", "invent", "build"])
def test_stdout_that_cannot_be_written_exits_2_with_one_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(conicroute.__file__).parents[1]))
    with open("/dev/full", "wb") as full:  # every write to it fails with ENOSPC
        child = subprocess.run(
            [sys.executable, "-c", "from conicroute.cli import entrypoint; entrypoint()", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert child.returncode == 2
    message = f"conicroute: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert child.stderr == message.encode()


def _child_with_fd_closed(argv: list[str], fd: int | None) -> subprocess.CompletedProcess:
    """The CLI as a child whose fd 1 or 2 is closed before it starts, so
    Python sets that stream to None; the other streams are captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(conicroute.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", "from conicroute.cli import entrypoint; entrypoint()", *argv],
        stdout=None if fd == 1 else subprocess.PIPE, stderr=None if fd == 2 else subprocess.PIPE,
        preexec_fn=None if fd is None else lambda: os.close(fd), env=env, timeout=60,
    )


@pytest.mark.parametrize("argv", [["query", MATRIX, "--all-sources"], ["export", MATRIX],
                                  ["invent", MATRIX], ["build", MATRIX]],
                         ids=["query_all_sources", "export", "invent", "build"])
def test_a_closed_stdout_exits_2_with_one_line(argv):
    child = _child_with_fd_closed(argv, 1)
    assert child.returncode == 2
    message = f"conicroute: cannot write output: {os.strerror(errno.EBADF)}\n"
    assert child.stderr == message.encode()


@pytest.mark.parametrize("argv, code", [
    (["build", MATRIX], 0), (["validate", MATRIX], 0), (["build", "missing.csv"], 2),
    (["build", "--format", "xml", MATRIX], 1), (["query", MATRIX, "--source", "nobody"], 3),
], ids=["ok", "validate", "missing_file", "usage", "unknown_source"])
def test_a_closed_stderr_keeps_the_documented_exit_code(argv, code):
    child = _child_with_fd_closed(argv, 2)
    assert child.returncode == code
    assert child.stdout == _child_with_fd_closed(argv, None).stdout


# --- output pinned by digest ------------------------------------------------------

# sha256 of (exit code, stdout, stderr) for each case; stdout and stderr as the
# UTF-8 bytes the CLI writes. Recorded from the dict-and-JSONEncoder rendering
# that the per-shape renderers replaced, so any byte they change shows here; the
# tolerance cases from the Fraction() reading that the tolerance grammar replaced.
_PINNED = {
    "bad-validate-json": "59113bb4cf290df3886a118b3b653c6dbe35204efc6d909a88a38e436d415cac",
    "bad-validate-table": "cf2a07e2653b0697c3b7202426b35793e447216ce27119e5c3d200729b8aa70b",
    "fixture-build-json": "a970af22e607219c13603a0ceb1a970b53192152310b8bba3756fa400c510334",
    "fixture-build-table": "98d314b8af25bc62cdb8f7d52d1f3ee69aed72790a42203d35d29e77105823a5",
    "fixture-export_invent": "40d19fac1449e672ef989913a4167fb48fe27c816447f7e3828a6748696312b6",
    "fixture-invent-json": "9b868c8be72a90300f00a9df2f0ae180328b692f1e683177b1a8ca729b58dfd5",
    "fixture-invent-table": "7c475af8e061fb1430481c4fb28cb4b74d369f513ef5f7ba96dfa61126dcbf8f",
    "fixture-query_all_sources_hidden-json": "87a9823f4985b92696c118504470e3939bb435f8e01a22e33ae71fff491706ed",
    "fixture-query_all_sources_hidden-table": "dcd5e799d68141b7983bba19143383e81618788643f59b327813af71b243de72",
    "fixture-query_all_sources_hidden_tolerance_bare_fraction": "bb4da7e3ee22ce9718cfd26b4e0e5b264c44e93203f7b7488ef060381a4e9dab",
    "fixture-query_all_sources_hidden_tolerance_decimal": "bb4da7e3ee22ce9718cfd26b4e0e5b264c44e93203f7b7488ef060381a4e9dab",
    "fixture-query_all_sources_hidden_tolerance_exponent": "bb4da7e3ee22ce9718cfd26b4e0e5b264c44e93203f7b7488ef060381a4e9dab",
    "fixture-query_all_sources_hidden_tolerance_ratio": "bb4da7e3ee22ce9718cfd26b4e0e5b264c44e93203f7b7488ef060381a4e9dab",
    "fixture-query_source-json": "7d81eb08956e91bdd31e3d8bc8f8f76ccd4e4d9fe98011cfbed0cfecf9db97a9",
    "fixture-query_source-table": "f695c5247300701d64f52a5e9d372ace95cf631439fcac9a9715ff1aaa468158",
    "fixture-validate-json": "5c134c055c06b63ad4592ad9e8e22fe3bc18785dcb998f69ba6e4dd0d3d67f83",
    "fixture-validate-table": "6308f38916b9f54549deccb0f7000af476dac672707e2c167f499903e9b67023",
    "generated-build-json": "259156c2f43f85f4509d8c4254f6ce03946b9c07921693eda2185abd270aaf09",
    "generated-build-table": "98441702ffbcee07532c16457403f5baacefa9a538066465179901679d92d996",
    "generated-export_invent": "c083df8b7d7ebea6f8ec8390e69f1d715f7773f091b925925eca039c83ffa094",
    "generated-invent-json": "f83d10a1476d7cb16a2b1a4763e108b61caa5718e117f7912aa6f9297e14ae37",
    "generated-invent-table": "a8b45e22928d54d20baecb98c154d0cfb61c6d5c5e8bc111a7dfbb8649a7f037",
    "generated-query_all_sources_hidden-json": "ecf20646ae73159e0242e49fbff966d507ab82f52da46a2043309c4112bff66a",
    "generated-query_all_sources_hidden-table": "096fd071f3aadca5f6b3e56a2796806e5916f8c9aec813b7c93c4dcf5d166421",
    "generated-query_all_sources_hidden_tolerance_bare_fraction": "0bd52f3fc71df5654c69b86d740a79f92f204efaa8f032a2ac407015b5cf4915",
    "generated-query_all_sources_hidden_tolerance_decimal": "0bd52f3fc71df5654c69b86d740a79f92f204efaa8f032a2ac407015b5cf4915",
    "generated-query_all_sources_hidden_tolerance_exponent": "0bd52f3fc71df5654c69b86d740a79f92f204efaa8f032a2ac407015b5cf4915",
    "generated-query_all_sources_hidden_tolerance_ratio": "0bd52f3fc71df5654c69b86d740a79f92f204efaa8f032a2ac407015b5cf4915",
    "generated-query_source-json": "53108bd01c5293e14f505f97d4182894c52bcf14bd6532f8ddf1134c6018ee22",
    "generated-query_source-table": "1c59ba505774823a9a90b5a14ab24b1c27fdf3a8ab01c7d80898d137cce31172",
    "generated-validate-json": "5c134c055c06b63ad4592ad9e8e22fe3bc18785dcb998f69ba6e4dd0d3d67f83",
    "generated-validate-table": "6308f38916b9f54549deccb0f7000af476dac672707e2c167f499903e9b67023",
    "overflow-query_hidden-json": "0ad7daf6e8c1efff7bb5d367143e7c2af03b05f6bf396b72d4452c9fe38b4499",
    "overflow-query_hidden-table": "4fb715822356f7aa0afbc9fcc1f3765745ef5a43598122787aec0f6b984fb600",
    "quiet-invent-json": "d3628caa3b0283765cbc0d75215ea8825476aaa93e80e9bb78f034baa14d47c0",
    "quiet-invent-table": "242fd60a60bb4c71e248820a628ef4fb9389b67af1412477376adb487fad3ee9",
    "quiet-query_all_sources-json": "4f5eb2f681d12d9d6210670e7c954406f7819a8eeaea8747e9ea501336dee458",
    "quiet-query_all_sources-table": "2df847eb68e90b8a3a12cee682747c7af0f4b4d79e3a250a05a3bdd15c6239a1",
}

_QUIET = "destinations,A,B\noffsets,1,2\nS1,0,10,20\nS2,1,,5\n"  # S2 invents nothing
_OVERFLOW = "destinations,A,B\noffsets,1,2\ns,0,1,1" + "0" * 400 + "\n"
_BAD = "destinations,A,B\noffsets,1,2\nS1,0,5,5\n"


def _pinned_cases() -> dict[str, list[str]]:
    cases = {}
    for files, source in (("fixture", "Rumuomasi"), ("generated", "S0")):
        for fmt in ("json", "table"):
            for name, argv in (
                ("build", ["build", "{matrix}"]),
                ("validate", ["validate", "{matrix}"]),
                ("query_source", ["query", "{matrix}", "--source", source]),
                ("query_all_sources_hidden",
                 ["query", "{matrix}", "--all-sources", "--hidden", "{hidden}"]),
                ("invent", ["invent", "{matrix}"]),
            ):
                cases[f"{files}-{name}-{fmt}"] = [*argv, "--format", fmt]
        cases[f"{files}-export_invent"] = ["export", "{matrix}", "--invent"]
        # every accepted form of one tolerance gives the same bytes
        for form, tolerance in (("ratio", "1/20"), ("decimal", "0.05"), ("exponent", "5e-2"),
                                ("bare_fraction", ".05")):
            cases[f"{files}-query_all_sources_hidden_tolerance_{form}"] = [
                "query", "{matrix}", "--all-sources", "--hidden", "{hidden}",
                "--tolerance", tolerance]
    for fmt in ("json", "table"):
        cases[f"overflow-query_hidden-{fmt}"] = [
            "query", "{overflow}", "--source", "s", "--hidden", "{overflow_hidden}",
            "--format", fmt]
        cases[f"quiet-invent-{fmt}"] = ["invent", "{quiet}", "--format", fmt]
        cases[f"quiet-query_all_sources-{fmt}"] = [
            "query", "{quiet}", "--all-sources", "--format", fmt]
        cases[f"bad-validate-{fmt}"] = ["validate", "{bad}", "--format", fmt]
    return cases


def _pinned_digest(tmp_path: Path, case: str) -> str:
    files = {"fixture": (MATRIX, HIDDEN), "generated": _generated_files(tmp_path)}
    matrix, hidden = files.get(case.split("-")[0], (None, None))
    paths = {"matrix": matrix, "hidden": hidden}
    for name, text in (("overflow", _OVERFLOW), ("overflow_hidden", "from,to,true_weight\nA,B,1\n"),
                       ("quiet", _QUIET), ("bad", _BAD)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths) for arg in _pinned_cases()[case]])
    record = b"%d\0%s\0%s" % (code, out.getvalue().encode(), err.getvalue().encode())
    return hashlib.sha256(record).hexdigest()


@pytest.mark.parametrize("case", sorted(_pinned_cases()))
def test_output_matches_its_pinned_digest(tmp_path, case):
    assert _pinned_digest(tmp_path, case) == _PINNED[case]
