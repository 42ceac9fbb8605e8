"""Source hygiene that no linter in CI checks: every import in the package is read."""

from __future__ import annotations

import ast
from pathlib import Path

import seqelicit

PACKAGE = Path(seqelicit.__file__).resolve().parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by import, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads, counting those inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id for part in trees for node in ast.walk(part) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in read]
    assert unused == []


def test_the_scan_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse("import os\nfrom typing import Any\nfrom x import Y\ndef f(a: 'Y') -> None: ...\n")
    read = _read(tree)
    assert [name for name in _imported(tree) if name not in read] == ["os", "Any"]
