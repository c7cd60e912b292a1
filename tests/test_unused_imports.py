"""Every name a library module or demo imports is used in that file.

No linter ships with the project, so this walks each file's syntax tree: a
name bound by an import must occur as a name somewhere else in the file.
``__init__.py`` is left out, as its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidorders"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = "import os.path\nimport csv as c\nfrom typing import Mapping, Union\nx: Union[int, str] = c\n"
    assert unused_imports(source) == ["Mapping", "os"]


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
