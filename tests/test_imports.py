"""No module of the package imports a name it never uses, or keeps a
private name it never reads.

No linter runs with the tests, so these scans stand in for one: in each
module of ``src/bellcert``, every name an ``import`` binds must be read
somewhere in the module (as a plain name, or as the root of an attribute
chain), or be listed in the module's ``__all__``; and every private name
the module defines at its top level (a ``_function``, ``_Class`` or
``_CONSTANT``) must be read somewhere in the module, since no other module
may use it.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellcert"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def unused_privates(source: str) -> list[str]:
    """The private names that ``source`` binds at its top level by ``def``,
    ``class`` or assignment and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(n for n in bound - read if n.startswith("_") and not n.startswith("__"))


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
              "from .device import Device\n__all__ = ['Device']\n"
              "x: np.ndarray = loads('1')\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_privates():
    source = ("import numpy as np\n__all__ = []\n_USED = 1\n_UNUSED, _PAIR = 2, 3\n"
              "_TYPED: int = 4\n_PAIR = 5\n"
              "def _helper():\n    return f'{_USED}'\n"
              "def _dead():\n    _local = 1\n    return _local\n"
              "class _Gone:\n    _attr = 0\n"
              "x = np.array(_helper())\n")
    assert unused_privates(source) == ["_Gone", "_PAIR", "_TYPED", "_UNUSED", "_dead"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_privates(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []
