"""Every module-level import in the engine is used; ``__init__.py`` is
exempt, because it imports to re-export. It derives ``__all__`` from what
it binds, so the export test checks what that derivation cannot: each
exported name is defined in an engine module, not a helper imported there
(a ``typing`` name, say), and a star import binds exactly ``__all__``."""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import conicroute

SOURCES = sorted(p for p in Path(conicroute.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations such as ``"list[Edge]"`` included."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    trees = [tree]
    for annotation in annotations:
        trees += [ast.parse(node.value, mode="eval") for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_engine_has_no_unused_imports():
    assert SOURCES
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


def _defined_names(tree: ast.Module) -> set[str]:
    """Top-level ``def``, ``class`` and assignment targets; imports are not definitions."""
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    targets = [target for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return names | {target.id for target in targets if isinstance(target, ast.Name)}


def test_package_exports_exactly_its_public_names():
    bound = {name for name, value in vars(conicroute).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(conicroute.__all__) == bound
    defined = set().union(*(_defined_names(ast.parse(path.read_text(encoding="utf-8")))
                            for path in SOURCES))
    assert sorted(set(conicroute.__all__) - defined) == []
    star: dict = {}
    exec("from conicroute import *", star)
    assert set(star) - {"__builtins__"} == set(conicroute.__all__)
