"""No module under ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``
imports a name it never uses.

The repo runs no linter, so an import left behind when its last caller
is deleted survives silently.  This scan parses every file with
:mod:`ast` and reports each name an ``import`` binds that the module
never reads as a name, in code or in a string annotation.  Three kinds
of import are exempt: those of an ``__init__.py`` (a package re-exports
what it imports), a name the module lists in ``__all__``, and an import
marked ``# noqa: F401`` (kept for its side effects).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples", "benchmarks")


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names a string annotation (``"SSTable"``) refers to."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(parsed)
                         if isinstance(sub, ast.Name))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names it lists in
    ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound != "*" and bound not in used:
                unused.append(f"{node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("top", SCANNED)
def test_no_module_imports_a_name_it_never_uses(top):
    found = []
    for path in sorted((ROOT / top).rglob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.relative_to(ROOT)}:{entry}"
                      for entry in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_unused_names_and_honours_noqa_and_all():
    source = '''
from __future__ import annotations
import os.path
import json, re
from typing import Optional, Sequence
from collections import deque as dq, OrderedDict
import readline  # noqa: F401
from abc import (ABC,  # noqa: F401
                 abstractmethod)
from itertools import chain

__all__ = ["chain"]


def f(x: "Sequence[int]") -> "Optional[int]":
    return os.path.join(json.dumps(x), dq)
'''
    assert unused_imports(source) == ["4: re", "6: OrderedDict"]
