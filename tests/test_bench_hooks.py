"""The benchmark's traced run wraps engine functions by name; every name it
looks up must still exist, or ``bench/run.py --trace 1`` stops with an
AttributeError, and cmd_query must call its layers by those names, or their
time counts as its own."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from conicroute import cli
from conicroute.matrix_io import parse_hidden_paths

from conftest import HIDDEN_PATH

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py extends it on import
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    targets = run.trace_targets(run.load_engine())
    assert [label for owner, attr, label, _ in targets if not hasattr(owner, attr)] == []


def test_cmd_query_calls_the_layers_the_trace_wraps(monkeypatch, hospital_graph):
    # the trace subtracts these spans from cmd_query's: a call made some other
    # way would count as cmd_query's own time
    hidden = parse_hidden_paths(HIDDEN_PATH.read_text(encoding="utf-8"), hospital_graph)
    calls = Counter()

    def counted(name):
        call = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    for name in ("shortest_paths", "invent_for_source", "fitness"):
        monkeypatch.setattr(cli, name, counted(name))
    cli.cmd_query(hospital_graph, "Rumuomasi", hidden=hidden)
    assert calls == {"shortest_paths": 1, "invent_for_source": 1, "fitness": 1}
