"""Every library definition has a caller in the program.

A top-level function or class of a library module, or a public method of a
top-level class, must be referenced in ``src/`` (outside ``__init__.py``,
whose imports are only the package's exports), ``demos/`` or
``benchmarks/``.  A name that only tests call is test code, and a second
name for one job is a duplicate; both fail here unless ``EXEMPT`` gives a
reason to keep them.

References are matched by identifier: a name or attribute spelled like the
definition counts, strings do not.  So a dead name that shares its spelling
with some other attribute can slip through, but a name in use is never
flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidorders"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))

EXEMPT = {
    "random_word": "public helper that draws the random words of the property and long-word tests",
    "in_convex_subgroup": "public query for membership in a convex level, the paper's convex chain",
    "letter_images": "public read-only view of one braid letter's table in the transport's tables",
    "ChainReport.patterns": "public reading of a chain report as its distinct generator patterns",
    "ApproximationReport.radii_nondecreasing": "public check that agreement radii grow with N",
    "ApproximationReport.reaches_bound": "public check that some agreement radius reaches the ball bound",
    "ApproximationReport.all_distinct": "public check that every approximant has a distinctness witness",
}


def definitions(source: str) -> dict[str, str]:
    """Qualified name -> identifier of each top-level function and class,
    and of each public method of a top-level class."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def references(source: str) -> set[str]:
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def unreferenced(defined: dict[str, str], refs: set[str]) -> list[str]:
    return sorted(name for name, ident in defined.items() if ident not in refs)


def test_checker_finds_unreferenced_definitions():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def open(self): pass\n"
        "    def shut(self): pass\n"
        "    def __len__(self): return 0\n"
        "Box().open(used)\n"
        "label = 'unused'\n"
    )
    assert unreferenced(definitions(source), references(source)) == ["Box.shut", "unused"]


def test_every_definition_has_a_caller():
    defined = {}
    for path in MODULES:
        defined.update(definitions(path.read_text()))
    refs = set()
    for path in CALLERS:
        refs |= references(path.read_text())
    found = unreferenced(defined, refs)
    assert [name for name in found if name not in EXEMPT] == []
    # an exemption whose name has gained a caller, or is gone, is stale
    assert [name for name in EXEMPT if name not in found] == []

