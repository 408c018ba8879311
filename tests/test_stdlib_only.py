"""The engine imports nothing outside the Python standard library, and its CLI
leaves out the parts of it that would cost a start-up without doing its work."""

from __future__ import annotations

import ast
import subprocess
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


def test_the_cli_imports_no_module_it_does_not_use():
    # dataclasses imports inspect, ast and dis: a quarter of a CLI run's start-up
    src = str(Path(conicroute.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import conicroute.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))")
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "[]\n")
