"""Every name a package module imports, and every private module-level
name it defines, is read in that module; and the package imports nothing
beyond the standard library, numpy and itself.

Stdlib ``ast`` checks standing in for a linter's unused-import and
unused-private-name rules. ``__init__.py`` is skipped by those two: its
imports are the package's re-exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "streamcache"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
RUNTIME_DEPENDENCIES = {"numpy"}


def _names_read(tree: ast.AST) -> set:
    """Names that ``tree`` reads, including those inside quoted annotations
    such as ``"Token"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unread_privates(source: str) -> list:
    """Private (``_name``) module-level functions, classes and constants that
    nothing in ``source`` reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = _names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in used)


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


def test_checker_finds_unread_private_names():
    source = ("import math\n"
              "__all__ = ['f']\n"
              "_TOL, _SPARE = 1e-9, 2\n"
              "_LIMIT: int = 3\n"
              "def _corners(x):\n"
              "    return x\n"
              "def _helper(x):\n"
              "    return x\n"
              "class _Cache:\n"
              "    pass\n"
              "def f(x: '_Cache') -> float:\n"
              "    _local = 1\n"
              "    return math.fabs(_helper(x) - _TOL) + _local\n")
    assert unread_privates(source) == ["_LIMIT (line 4)", "_SPARE (line 3)",
                                       "_corners (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_its_private_names(path):
    assert unread_privates(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list:
    """Modules that ``source`` imports from outside the standard library,
    the runtime dependencies and the package itself."""
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {"streamcache"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


def test_checker_finds_foreign_imports():
    source = ("import math, numpy as np\n"
              "from . import types\n"
              "from .types import BBox\n"
              "from streamcache import cli\n"
              "from scipy.optimize import x\n"
              "def f():\n"
              "    import pandas.io\n")
    assert foreign_imports(source) == ["pandas.io (line 7)", "scipy.optimize (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the stdlib from 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
             for req in project["dependencies"]}
    assert names == RUNTIME_DEPENDENCIES
