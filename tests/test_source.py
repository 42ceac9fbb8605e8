"""Source hygiene that no linter in CI checks: every import in the package is
read, so is every private name the package defines, every cache the package
keeps on a value is named where the README lists the caches, every
exception class the package defines lives in `errors`, and the only handler
that catches every exception is the CLI's exit-1 barrier."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import seqelicit

PACKAGE = Path(seqelicit.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


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


def _private(tree: ast.Module) -> dict[str, int]:
    """The private names, dunders aside, that a module defines at module or
    class level, with the line of each."""
    names = {}
    bodies = [tree.body, *(node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def _read_anywhere(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute."""
    return _read(tree) | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
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


def test_every_private_name_is_read_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_anywhere, trees.values()))
    defined = [(f"{module}:{line} {name}", name) for module, tree in trees.items() for name, line in _private(tree).items()]
    assert len(defined) >= 30
    assert [where for where, name in defined if name not in read] == []


def test_the_scan_sees_a_private_name_never_read():
    tree = ast.parse(
        "_A = 1\n_B, _C = 2, 3\nclass K:\n    _x = 0\n    def _m(self): return _A + _C\n"
        "    def __len__(self): return self._x\ndef f():\n    _local = 1\n"
    )
    assert [name for name in _private(tree) if name not in _read_anywhere(tree)] == ["_B", "_m"]


def test_every_exception_class_the_package_defines_lives_in_errors():
    # One hierarchy: the CLI and callers catch `ElicitError` and its subclasses.
    names = [f"seqelicit.{path.stem}".removesuffix(".__init__") for path in sorted(PACKAGE.glob("*.py"))]
    modules = list(map(importlib.import_module, names))
    defined = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    ]
    assert len(defined) >= 8
    assert [where for where in defined if not where.startswith("seqelicit.errors.")] == []


def _cached_properties(tree: ast.Module) -> list[str]:
    """The names a module defines under `cached_property`, bare or as
    `functools.cached_property`."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "cached_property"
    ]


def _code_names(paragraph: str) -> set[str]:
    """The last dotted part of every code span in `paragraph`."""
    return {span.rsplit(".", 1)[-1] for span in re.findall(r"`([^`]+)`", paragraph)}


def test_every_cached_property_is_named_in_the_readme_caches_paragraph():
    paragraph = next(
        part for part in README.read_text(encoding="utf-8").split("\n\n") if "caches kept on the value" in part
    )
    caches = [name for path in sorted(PACKAGE.glob("*.py")) for name in _cached_properties(ast.parse(path.read_text()))]
    assert len(caches) >= 5
    assert [name for name in caches if name not in _code_names(paragraph)] == []


def test_the_scan_sees_every_cached_property_and_its_name():
    tree = ast.parse(
        "import functools\nfrom functools import cached_property\nclass K:\n"
        "    @cached_property\n    def a(self): ...\n    @functools.cached_property\n    def _b(self): ...\n"
        "    @property\n    def c(self): ...\n    def d(self): ...\n"
    )
    assert _cached_properties(tree) == ["a", "_b"]
    assert _code_names("the lattice (`instance.lattice`), `_b` and c") == {"lattice", "_b"}


def _catch_alls(tree: ast.Module) -> list[str]:
    """The dotted name of the function or class around each handler that
    catches `Exception` or `BaseException`, alone or in a tuple, and each bare
    `except:`, in source order ("" at module level)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(
                    kind is None or getattr(kind, "id", getattr(kind, "attr", None)) in ("Exception", "BaseException")
                    for kind in caught
                ):
                    found.append(where)
            visit(child, where)

    visit(tree, "")
    return found


def test_the_only_catch_all_handler_is_the_cli_exit_barrier():
    # A reference or an executor that catches everything turns a fault into
    # a value; only `cli.main` may, to exit 1 with a message.
    found = [
        f"{path.stem}.{where}".rstrip(".")
        for path in sorted(PACKAGE.glob("*.py"))
        for where in _catch_alls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["cli.main"]


def test_the_scan_sees_every_catch_all_handler_and_where_it_is():
    tree = ast.parse(
        "try: pass\nexcept: pass\n"
        "def f():\n    def g():\n        try: pass\n        except (ValueError, Exception): pass\n"
        "    try: pass\n    except ValueError: pass\n"
        "class K:\n    def m(self):\n        try: pass\n        except KeyError: pass\n"
        "        except builtins.BaseException as exc: pass\n"
    )
    assert _catch_alls(tree) == ["", "f.g", "K.m"]
