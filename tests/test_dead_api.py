"""Every library definition has a caller in the program, and every default
is both overridden and relied on there.

A top-level function or class of a library module, or a public method,
annotated field or instance attribute of a top-level class, must be
referenced in ``src/`` (outside ``__init__.py``, whose imports are only the
package's exports).  Only ``src/`` callers count: a name that only tests,
demos or the benchmark call belongs to them, a field that only they read
restates what the program knows elsewhere, and a second name for one job is
a duplicate; all fail here unless ``EXEMPT`` gives a reason to keep them.

References are matched by identifier: a name or attribute spelled like the
definition counts, strings, keyword arguments and assignments (a field's
declaration, ``self.x = ...``) do not, and an instance attribute counts only
when read as an attribute.  So a dead name that shares its spelling with
some other attribute can slip through, but a name in use is never flagged.

The same callers must turn every knob: a defaulted parameter of a top-level
function, or of a public method or the ``__init__`` of a top-level class,
and a defaulted field of a top-level class, must be passed by some call (by
keyword, or by enough positional arguments; a field's place is its place
among the class's annotated fields, and calls of a class match its fields
and its ``__init__`` by the class name) and left out by some other.  A default that no call overrides is a knob only tests turn; one that
every call overrides is a default only tests use.  ``KNOBS`` lists the
exceptions with a reason.  Calls are matched by identifier too, and a call
with ``*args`` or ``**kwargs`` counts as passing every parameter.

A second name is found by its shape as well: a top-level function or public
method of a top-level class whose whole body, docstring aside, is
``return f(<its own parameters, positionally, in order>)`` renames f and
fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidorders"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
CALLERS = MODULES

EXEMPT = {
    "in_convex_subgroup": "public query for membership in a convex level, the paper's convex chain",
    "BudgetExceededError.partial": "the partly reduced word, which a caller needs in order to resume (None from a finite ray's scan)",
    "catalog_order": "the entry point to a catalog order for demos, README and the benchmark",
    "ConjugateRow.conjugator": "a JSON field of approx rows, written through cli._fields, pinned in tests/cli_outputs and the benchmark digests",
    "ExtensionRow.soul_witness_vector": "a JSON field of approx rows, written through cli._fields, pinned in tests/cli_outputs and the benchmark digests",
}


def fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated fields of a class, in declaration order."""
    return [item for item in node.body if isinstance(item, ast.AnnAssign)]


def definitions(source: str) -> dict[str, str]:
    """Qualified name -> identifier of each top-level function and class,
    and of each public method and annotated field of a top-level class; an
    instance attribute (set as ``self.x = ...``) is read only as ``.x``, so
    its identifier is ``.x``."""
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
            for item in ast.walk(node):
                if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store):
                    if getattr(item.value, "id", None) == "self" and not item.attr.startswith("_"):
                        found[f"{node.name}.{item.attr}"] = f".{item.attr}"
    return found


def references(source: str) -> set[str]:
    """The identifiers read, as names or attributes, and each attribute read
    again as ``.x``; assignment targets are not reads."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs |= {node.attr, f".{node.attr}"}
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
        "class Err:\n"
        "    def __init__(self, cause, code):\n"
        "        self.cause = cause\n"
        "        self.code = code\n"
        "        self._note = code\n"
        "Box(1, colour='red').open(used).side\n"
        "label = 'unused'\n"
        "err = Err(1, 2)\n"
        "code = err.cause\n"
    )
    # Err.code is spelled as a name, and only assigned as an attribute
    expected = ["Box.colour", "Box.shut", "Err.code", "unused"]
    assert unreferenced(definitions(source), references(source)) == expected


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
    "main.argv": "the in-process entry that the benchmark and tests drive; the console script reads sys.argv",
}


def functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """(qualified name, node) of each top-level function and of each public
    method of a top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((f"{node.name}.{item.name}", item))
    return found


def defaulted(source: str) -> dict[str, tuple[str, str, int | None]]:
    """Qualified parameter name -> (callee identifier, parameter, place
    among the positional arguments of a call, or None if keyword-only) of
    each defaulted parameter of a top-level function or public method, of
    each defaulted field of a top-level class, and of each defaulted
    parameter of a top-level class's __init__, named and called by the
    class name."""
    tree = ast.parse(source)
    found = {}
    callables = [(qualified, node.name, node) for qualified, node in functions(tree)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for place, item in enumerate(fields(node)):
                if item.value is not None:
                    found[f"{node.name}.{item.target.id}"] = (node.name, item.target.id, place)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    callables.append((node.name, node.name, item))
    for qualified, callee, node in callables:
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        bound = ("." in qualified or node.name == "__init__") and not static
        args = node.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        for place, arg in enumerate(positional[len(positional) - len(args.defaults):], len(positional) - len(args.defaults)):
            found[f"{qualified}.{arg.arg}"] = (callee, arg.arg, place)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qualified}.{arg.arg}"] = (callee, arg.arg, None)
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
        "class Pen:\n"
        "    def __init__(self, ink, thick=1, cap=True, *, nib=0): pass\n"
        "never(0)\n"
        "always(0, 2)\n"
        "always(0, b=2)\n"
        "both(0)\n"
        "both(0, 3, c=4)\n"
        "Box().open(True)\n"
        "Box().open()\n"
        "Cell(0)\n"
        "Cell(0, 1)\n"
        "Pen(0)\n"
        "Pen(0, 2, nib=1)\n"
    )
    # Pen's cap is never passed: a call's second argument is its thick
    expected = ["Cell.wide", "Pen.cap", "always.b", "never.b"]
    assert unturned(defaulted(source), calls(source)) == expected
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


def second_names(source: str) -> list[str]:
    """Top-level functions and public methods of top-level classes whose
    body, docstring aside, returns a call of another function on their own
    parameters, positionally and in order."""
    found = []
    for qualified, node in functions(ast.parse(source)):
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs or len(body) != 1:
            continue
        returned = body[0].value if isinstance(body[0], ast.Return) else None
        params = [arg.arg for arg in args.posonlyargs + args.args]
        if isinstance(returned, ast.Call) and not returned.keywords:
            if [getattr(arg, "id", None) for arg in returned.args] == params:
                found.append(qualified)
    return sorted(found)


def test_checker_finds_second_names():
    source = (
        "def alias(a, b):\n"
        "    \"Same as f.\"\n"
        "    return f(a, b)\n"
        "def swapped(a, b): return f(b, a)\n"
        "def keyword(a): return f(x=a)\n"
        "def more(a): return f(a, 1)\n"
        "def rest(a, *b): return f(a)\n"
        "def two(a):\n"
        "    check(a)\n"
        "    return f(a)\n"
        "class Box:\n"
        "    def open(self, wide): return open_box(self, wide)\n"
        "    def _shut(self): return shut_box(self)\n"
        "    def size(self): return len(self.items)\n"
    )
    assert second_names(source) == ["Box.open", "alias"]


def test_no_second_names():
    assert [name for path in MODULES for name in second_names(path.read_text())] == []
