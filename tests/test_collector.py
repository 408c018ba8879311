"""The bulk entry points run with the cyclic collector paused. That loses
nothing because the engine makes no reference cycles, and each call gives
the collector back as it found it."""

from __future__ import annotations

import gc
import inspect
import random

import pytest

from conicroute import cli, invention, matrix_io
from conicroute.cli import cmd_query, main
from conicroute.contraction import build_hierarchy
from conicroute.dot import export_dot
from conicroute.errors import ParseError, ValidationFailed
from conicroute.graph import ConicGraph
from conicroute.invention import invent_all
from conicroute.matrix_io import (
    BuildMatrix,
    MatrixRow,
    build_graph,
    emit_build_matrix,
    parse_build_matrix,
    parse_hidden_paths,
    to_graph,
)

from conftest import HIDDEN_PATH, MATRIX_PATH, random_dag

BAD_CELL = "destinations,A\noffsets,1\nS,0,x\n"  # NonIntegerCell, a ParseError

# every violation build_graph records, each from a hand-built cell or node
EVERY_VIOLATION = BuildMatrix(("A", "B", "A", "D"), (1, 2, 3, 2), (
    MatrixRow("S", 0, ((0, 5), (1, 5))),                       # EqualAdjacentWeight
    MatrixRow("T", 1, ((0, -3), (1, 4), (2, 6))),              # NonPositiveWeight
    MatrixRow("U", 2, ((1, 6), (0, 7), (9, 8), (0.0, 9))),     # RaggedRow, UnknownNode
    MatrixRow("", 3, ((0, 1),)),                               # InvalidNode
))                                                             # DuplicateLabel, DuplicateOffset


@pytest.fixture
def collector_off():
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        gc.enable()


def _raises(error: type[Exception], call, *args) -> None:
    # a plain except keeps no traceback: pytest.raises' ExceptionInfo holds the
    # test's frame, a cycle of the test's own making
    try:
        call(*args)
    except error:
        return
    pytest.fail(f"{error.__name__} not raised")


def test_the_engine_makes_no_reference_cycles(collector_off):
    # cli.main is left out: argparse's parser holds a constant number of
    # cyclic objects per call (237 at the time of writing), none of the engine's
    text = MATRIX_PATH.read_text(encoding="utf-8")
    rows = [f"s{i},{i}," + ",".join(str(1 + (7 * i + 3 * j) % 97 + 97 * j) for j in range(40))
            for i in range(200)]
    wide = "\n".join(["destinations," + ",".join(f"d{j}" for j in range(40)),
                      "offsets," + ",".join(str(j + 1) for j in range(40)), *rows]) + "\n"
    graph = hidden = None

    def clean():
        nonlocal graph, hidden
        graph, violations = build_graph(parse_build_matrix(text))
        assert violations == []
        hidden = parse_hidden_paths(HIDDEN_PATH.read_text(encoding="utf-8"), graph)
        assert build_graph(parse_build_matrix(wide))[1] == []

    def every_violation():
        codes = {v.code for v in build_graph(EVERY_VIOLATION)[1]}
        assert codes == {"EqualAdjacentWeight", "NonPositiveWeight", "RaggedRow", "UnknownNode",
                         "InvalidNode", "DuplicateLabel", "DuplicateOffset"}

    steps = {
        "parse and build a clean matrix": clean,
        "build a matrix with every violation": every_violation,
        "invent_all": lambda: invent_all(graph),
        "export_dot": lambda: export_dot(graph, invented=[e for v in invent_all(graph).values()
                                                          for e in v]),
        "cmd_query": lambda: [cmd_query(graph, n.label, hidden=hidden) for n in graph.sources()],
        "emit_build_matrix": lambda: emit_build_matrix(parse_build_matrix(text)),
        "build_hierarchy": lambda: build_hierarchy(random_dag(random.Random(3), 10)),
        "ParseError": lambda: _raises(ParseError, parse_build_matrix, BAD_CELL),
        "ValidationFailed": lambda: _raises(ValidationFailed, to_graph, EVERY_VIOLATION),
    }
    unreachable = {}
    for name, step in steps.items():
        step()
        unreachable[name] = gc.collect()
    assert unreachable == dict.fromkeys(steps, 0)


def _paused_inside(monkeypatch) -> list[bool]:
    """Whether the collector was enabled at each CSV read, graph freeze and pair walk."""
    seen: list[bool] = []

    def record(owner, name):
        call = getattr(owner, name)

        def recorded(*args, **kwargs):
            seen.append(gc.isenabled())
            return call(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    record(matrix_io, "_records")
    record(ConicGraph, "freeze")
    record(invention, "invent_for_source")
    return seen


@pytest.mark.parametrize("call", [
    "parse_build_matrix", "build_graph", "to_graph", "invent_all", "main"])
def test_a_bulk_call_pauses_the_collector_and_gives_it_back(call, monkeypatch, capsys):
    text = MATRIX_PATH.read_text(encoding="utf-8")
    matrix = parse_build_matrix(text)
    graph = to_graph(matrix)
    seen = _paused_inside(monkeypatch)
    run = {"parse_build_matrix": lambda: parse_build_matrix(text),
           "build_graph": lambda: build_graph(matrix),
           "to_graph": lambda: to_graph(matrix),
           "invent_all": lambda: invent_all(graph),
           "main": lambda: main(["invent", str(MATRIX_PATH)])}[call]
    run()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("module, name", [
    (matrix_io, "parse_build_matrix"), (matrix_io, "build_graph"),
    (invention, "invent_all"), (cli, "main")])
def test_a_paused_call_keeps_its_name_and_signature(module, name):
    paused = getattr(module, name)
    assert paused.__name__ == name and paused.__module__ == module.__name__
    assert inspect.signature(paused) == inspect.signature(paused.__wrapped__)


@pytest.mark.parametrize("error, call, arg, text", [
    (ParseError, parse_build_matrix, BAD_CELL, BAD_CELL),
    # to_graph raises once build_graph has returned
    (ValidationFailed, to_graph, EVERY_VIOLATION, "destinations,A,B\noffsets,1,2\nS,0,5,5\n"),
], ids=["ParseError", "ValidationFailed"])
def test_a_raised_error_gives_the_collector_back(error, call, arg, text, tmp_path, capsys):
    _raises(error, call, arg)
    assert gc.isenabled()
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    # raised inside main's own pause: main -> parse_build_matrix or to_graph
    assert main(["build", str(path)]) == cli.PARSE_ERROR
    assert gc.isenabled()


def test_a_caller_who_paused_the_collector_keeps_it_paused(capsys):
    gc.disable()
    try:
        graph = to_graph(parse_build_matrix(MATRIX_PATH.read_text(encoding="utf-8")))
        assert not gc.isenabled()
        invent_all(graph)
        assert not gc.isenabled()
        _raises(ParseError, parse_build_matrix, BAD_CELL)
        assert not gc.isenabled()
        assert main(["build", str(MATRIX_PATH)]) == cli.OK
        assert not gc.isenabled()
    finally:
        gc.enable()
