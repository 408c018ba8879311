"""The benchmark's traced run wraps engine functions by name; every name it
looks up must still exist, or ``bench/run.py --trace 1`` stops with an
AttributeError."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py extends it on import
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    targets = run.trace_targets(run.load_engine())
    assert [label for owner, attr, label, _ in targets if not hasattr(owner, attr)] == []
