"""No library module imports another module's private name.

A name that begins with an underscore is private to the module that defines
it; a second module that needs it should read a public name instead.  This
walks each module's syntax tree, ``__init__.py`` included, and flags every
underscore name imported from a module of the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidorders"
MODULES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
