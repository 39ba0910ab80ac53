"""Every name a package module imports is used in that module.

A stdlib ``ast`` check standing in for a linter's unused-import rule.
``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "streamcache"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as "Token" names its types inside a string
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, json as js\n"
              "from typing import List, Optional\n"
              "import numpy.linalg\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return [numpy.linalg.norm(x)]\n")
    assert unused_imports(source) == ["js (line 2)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
