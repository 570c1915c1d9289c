"""No module of the package imports a name it never uses, imports inside a
function, keeps a private name it never reads, or reads JSON without
catching its failures.

No linter runs with the tests, so these scans stand in for one: in each
module of ``src/bellcert``, every name an ``import`` binds must be read
somewhere in the module (as a plain name, or as the root of an attribute
chain), or be listed in the module's ``__all__``; no ``import`` statement
may sit in a function body, so every dependency shows at the top; every
private name the module defines at its top level (a ``_function``,
``_Class`` or ``_CONSTANT``) must be read somewhere in the module, since no
other module may use it; and every ``json.load``/``json.loads`` call must
sit in the body of a ``try`` whose handlers catch ``ValueError`` (bad
UTF-8, bad JSON, over-long int strings) and ``RecursionError`` (deep
nesting), since every file or line the package reads may be hostile.
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


def nested_imports(source: str) -> list[int]:
    """The lines of the ``import`` statements in a function body of ``source``."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_scan_finds_nested_imports():
    source = ("import os\n"
              "def f():\n    from . import lwe\n    return lwe\n"
              "class C:\n    import json\n"
              "    def m(self):\n        if os:\n            import re\n"
              "async def g():\n    def h():\n        import sys\n")
    assert nested_imports(source) == [3, 9, 12]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_imports(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


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


def unguarded_json_reads(source: str) -> list[int]:
    """The lines of the ``json.load``/``json.loads`` calls in ``source`` that no
    enclosing ``try`` guards with handlers for ValueError and RecursionError."""
    found = []

    def visit(node, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            guarded = False  # its body runs when called, not where it is defined
        if isinstance(node, ast.Try):
            caught = {n.id for h in node.handlers if h.type
                      for n in ast.walk(h.type) if isinstance(n, ast.Name)}
            for child in node.body:
                visit(child, guarded or {"ValueError", "RecursionError"} <= caught)
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                visit(child, guarded)
            return
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr in ("load", "loads") and isinstance(func.value, ast.Name)
                and func.value.id == "json" and not guarded):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(ast.parse(source), False)
    return found


def test_scan_finds_unguarded_json_reads():
    source = ("import json\n"
              "a = json.loads('1')\n"
              "try:\n    b = json.load(fh)\nexcept (ValueError, RecursionError):\n"
              "    c = json.loads('2')\n"
              "try:\n    d = json.loads('3')\nexcept ValueError:\n    pass\n"
              "try:\n    def f():\n        return json.loads('4')\n"
              "except (RecursionError, ValueError):\n    pass\n"
              "e = json.dumps(1)\n")
    assert unguarded_json_reads(source) == [2, 6, 8, 13]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unguarded_json_reads(path):
    assert unguarded_json_reads(path.read_text(encoding="utf-8")) == []
