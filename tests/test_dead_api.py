"""Every library definition has a caller in the program, and every default
is both overridden and relied on there.

A top-level function or class of a library module, or a public method or
annotated field of a top-level class, must be referenced in ``src/``
(outside ``__init__.py``, whose imports are only the package's exports),
``demos/`` or ``benchmarks/``.  A name that only tests call is test code, a
field that only tests read restates what the program knows elsewhere, and
a second name for one job is a duplicate; all fail here unless ``EXEMPT``
gives a reason to keep them.

References are matched by identifier: a name or attribute spelled like the
definition counts, strings, keyword arguments and a field's own declaration
do not.  So a dead name that shares its spelling with some other attribute
can slip through, but a name in use is never flagged.

The same callers must turn every knob: a defaulted parameter of a top-level
function, or of a public method of a top-level class, and a defaulted field
of a top-level class, must be passed by some call (by keyword, or by enough
positional arguments; a field's place is its place among the class's
annotated fields, and calls match it by the class name) and left out by some
other.  A default that no call overrides is a knob only tests turn; one that
every call overrides is a default only tests use.  ``KNOBS`` lists the
exceptions with a reason.  Calls are matched by identifier too, and a call
with ``*args`` or ``**kwargs`` counts as passing every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidorders"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))

EXEMPT = {
    "in_convex_subgroup": "public query for membership in a convex level, the paper's convex chain",
}


def fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated fields of a class, in declaration order."""
    return [item for item in node.body if isinstance(item, ast.AnnAssign)]


def definitions(source: str) -> dict[str, str]:
    """Qualified name -> identifier of each top-level function and class,
    and of each public method and annotated field of a top-level class."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
            for item in fields(node):
                found[f"{node.name}.{item.target.id}"] = item.target.id
    return found


def references(source: str) -> set[str]:
    tree = ast.parse(source)
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    declared = {id(item.target) for node in classes for item in fields(node)}
    refs = set()
    for node in ast.walk(tree):
        if id(node) in declared:
            continue
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
        "    side: int\n"
        "    colour: str\n"
        "    def open(self): pass\n"
        "    def shut(self): pass\n"
        "    def __len__(self): return 0\n"
        "Box(1, colour='red').open(used).side\n"
        "label = 'unused'\n"
    )
    assert unreferenced(definitions(source), references(source)) == ["Box.colour", "Box.shut", "unused"]


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



KNOBS = {
    "handle_reduce.budget": "the safety budget on reduction steps, which tests exhaust on purpose",
}


def defaulted(source: str) -> dict[str, tuple[str, str, int | None]]:
    """Qualified parameter name -> (callee identifier, parameter, place
    among the positional arguments of a call, or None if keyword-only) of
    each defaulted parameter of a top-level function or public method, and
    of each defaulted field of a top-level class."""
    functions = []
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            for place, item in enumerate(fields(node)):
                if item.value is not None:
                    found[f"{node.name}.{item.target.id}"] = (node.name, item.target.id, place)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    functions.append((f"{node.name}.{item.name}", item, not static))
    for qualified, node, bound in functions:
        args = node.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        for place, arg in enumerate(positional[len(positional) - len(args.defaults):], len(positional) - len(args.defaults)):
            found[f"{qualified}.{arg.arg}"] = (node.name, arg.arg, place)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qualified}.{arg.arg}"] = (node.name, arg.arg, None)
    return found


def calls(source: str) -> list[tuple[str, int, set[str], bool]]:
    """(callee identifier, positional count, keywords, starred) of each call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            starred = starred or any(k.arg is None for k in node.keywords)
            out.append((name, len(node.args), {k.arg for k in node.keywords}, starred))
    return out


def unturned(knobs: dict[str, tuple[str, str, int | None]], found: list) -> list[str]:
    """Knobs that no call passes, or that every call passes."""
    flagged = []
    for qualified, (name, param, place) in knobs.items():
        passes = [
            starred or param in keywords or (place is not None and count > place)
            for callee, count, keywords, starred in found
            if callee == name
        ]
        if all(passes) or not any(passes):
            flagged.append(qualified)
    return sorted(flagged)


def test_checker_finds_unturned_knobs():
    source = (
        "def never(a, b=1): pass\n"
        "def always(a, b=1): pass\n"
        "def both(a, b=1, *, c=2): pass\n"
        "class Box:\n"
        "    def open(self, wide=False): pass\n"
        "    def _shut(self, hard=False): pass\n"
        "class Cell:\n"
        "    row: int\n"
        "    col: int = 0\n"
        "    wide: bool = False\n"
        "never(0)\n"
        "always(0, 2)\n"
        "always(0, b=2)\n"
        "both(0)\n"
        "both(0, 3, c=4)\n"
        "Box().open(True)\n"
        "Box().open()\n"
        "Cell(0)\n"
        "Cell(0, 1)\n"
    )
    assert unturned(defaulted(source), calls(source)) == ["Cell.wide", "always.b", "never.b"]
    assert unturned(defaulted("def f(a=1): pass\n"), calls("f(*args)\nf()\n")) == []


def test_every_default_is_turned_and_relied_on():
    knobs = {}
    for path in MODULES:
        knobs.update(defaulted(path.read_text()))
    found = []
    for path in CALLERS:
        found += calls(path.read_text())
    flagged = unturned(knobs, found)
    assert [name for name in flagged if name not in KNOBS] == []
    # a listed knob that some call now turns, or that is gone, is stale
    assert [name for name in KNOBS if name not in flagged] == []
