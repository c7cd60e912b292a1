"""Report records are named tuples; validated values are built on
``errors.Value``, and no class is built by ``@dataclass``.

A frozen dataclass costs about ten times a ``typing.NamedTuple`` to define,
and ``import dataclasses`` loads ``inspect``; the package defines its classes
at import, so a record with nothing to check is a named tuple and a value
type is a ``Value``.  A ``Value`` class with fields of its own must check
them in its ``__init__`` (more than storing them) or be one of the value
types listed below.  The records' field order is pinned, because the CLI's
JSON and CSV keys follow it.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import textwrap
import types
from typing import NamedTuple

import pytest

import braidorders
from braidorders.errors import Value

# value types with nothing to check: the convention is three independent
# flags (its germ places are the module-level planar._places), and the
# oracle must not equal a plain tuple of its strand count
KEPT_VALUES = {"GermConvention", "DehornoyOrder"}

RECORD_FIELDS = {
    "braidorders.catalog.CalibrationResult": ("convention", "word", "matches"),
    "braidorders.experiments.AgreementReport": (
        "radius", "witness", "witness_signs", "undecided_count",
    ),
    "braidorders.experiments.ConjugateRow": (
        "j", "conjugator", "radius", "witness", "witness_signs", "undecided_count",
    ),
    "braidorders.experiments.ExtensionRow": (
        "M", "weights", "radius", "witness", "witness_signs", "soul_witness_vector",
    ),
    "braidorders.experiments.ProbeRow": (
        "probe", "base_sign", "signs", "stable_sign",
    ),
    "braidorders.nt.ChainLevel": (
        "generator_pattern", "members_in_ball", "checked", "violations",
    ),
    "braidorders.nt.ChainReport": ("levels", "undecided_skipped"),
    "braidorders.nt.ConradWitness": ("f", "g"),
    "braidorders.nt.TotalityReport": ("tie_words", "records"),
}

MODULES = [
    importlib.import_module(f"braidorders.{info.name}")
    for info in pkgutil.iter_modules(braidorders.__path__)
]


def dataclass_built(module) -> list[str]:
    """Names of the classes built by @dataclass in the module."""
    return sorted(
        name
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and cls.__module__ == module.__name__ and "__dataclass_fields__" in vars(cls)
    )


def only_stores(init) -> bool:
    """Whether an __init__, docstring aside, is one self.__dict__.update(...) call."""
    body = ast.parse(textwrap.dedent(inspect.getsource(init))).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
    return isinstance(call, ast.Call) and ast.unparse(call.func) == "self.__dict__.update"


def unvalidated_values(module) -> list[str]:
    """Names of the Value classes in the module with fields of their own
    and no __init__ of their own that checks them; a plain subclass, with
    no fields of its own, keeps its base's check."""
    return sorted(
        name
        for name, cls in vars(module).items()
        if inspect.isclass(cls)
        and issubclass(cls, Value)
        and cls.__module__ == module.__name__
        and vars(cls).get("__annotations__")
        and ("__init__" not in vars(cls) or only_stores(cls.__init__))
    )


def test_checkers_find_dataclasses_and_unvalidated_values():
    @dataclasses.dataclass(frozen=True)
    class Built:
        x: int

        def __post_init__(self):
            pass

    class Record(Value):
        x: int

        def __init__(self, x):
            """Stores x."""
            self.__dict__.update(x=x)

    class Checked(Value):
        x: int

        def __init__(self, x):
            if x < 0:
                raise ValueError(x)
            self.__dict__.update(x=x)

    class Row(NamedTuple):
        x: int

    class Plain(Checked):
        pass

    class Rebuilt(Checked):
        y: int

    module = types.ModuleType(__name__)
    module.Built, module.Record, module.Checked, module.Row = Built, Record, Checked, Row
    module.Plain, module.Rebuilt = Plain, Rebuilt
    assert dataclass_built(module) == ["Built"]
    assert unvalidated_values(module) == ["Rebuilt", "Record"]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_no_dataclasses_and_values_validate_or_are_kept(module):
    assert dataclass_built(module) == []
    assert set(unvalidated_values(module)) <= KEPT_VALUES


def test_every_kept_value_is_still_unvalidated():
    # a kept name that gained a check, or is gone, is stale
    assert {name for module in MODULES for name in unvalidated_values(module)} == KEPT_VALUES


@pytest.mark.parametrize("path, fields", RECORD_FIELDS.items(), ids=list(RECORD_FIELDS))
def test_record_is_a_named_tuple_with_pinned_fields(path, fields):
    module_name, name = path.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == fields
