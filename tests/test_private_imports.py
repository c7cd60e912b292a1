"""No library module or demo imports or reads another module's private name.

A name that begins with an underscore is private to the module that defines
it; a second module, or a demo, that needs it should read a public name
instead.  This walks each file's syntax tree, ``__init__.py`` included, and
flags every underscore name imported from a module of the package, and every
attribute read ``x._name`` whose name the reading file does not define (as a
function, class, assigned name or assigned attribute).  Dunder names and the
named-tuple API (``_asdict`` and its kin) are public.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "braidorders").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
NAMEDTUPLE_API = {"_asdict", "_fields", "_field_defaults", "_make", "_replace"}


def private_imports(source: str) -> list[str]:
    """module.name of each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "braidorders":
            continue
        found.extend(f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
    return sorted(found)


def test_checker_finds_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from ._x import _a, b\n"
        "from .nt import _letter_depths as depths, nt_sign\n"
        "from braidorders.braids import _trusted_word\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == ["_x._a", "braidorders.braids._trusted_word", "nt._letter_depths"]


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def foreign_private_reads(source: str) -> list[str]:
    """Each underscore attribute read as x._name whose name the module does
    not define, dunders and the named-tuple API aside."""
    tree = ast.parse(source)
    defined = set(NAMEDTUPLE_API)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted(
        {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and node.attr not in defined
        }
    )


def test_checker_finds_foreign_private_reads():
    source = (
        "class Word:\n"
        "    def _source(self): pass\n"
        "    def read(self): return self._source(), self._cache\n"
        "    def __init__(self): self._cache = 0\n"
        "def blocks(word, row):\n"
        "    _local = 1\n"
        "    return word._letters, row._asdict(), word.__dict__, _local, word._peek()\n"
    )
    assert foreign_private_reads(source) == ["_letters", "_peek"]


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda path: path.name)
def test_no_foreign_private_reads(path):
    assert foreign_private_reads(path.read_text()) == []
