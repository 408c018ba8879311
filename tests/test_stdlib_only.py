"""The engine imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import conicroute

SOURCES = sorted(Path(conicroute.__file__).parent.glob("*.py"))


def test_engine_imports_only_the_standard_library():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
