"""Report records are named tuples; dataclasses are kept for validated values.

A frozen dataclass costs about ten times a ``typing.NamedTuple`` to define,
and the package defines its classes at import, so a record with nothing to
check is a named tuple.  A class built by ``@dataclass`` must validate its
fields in ``__post_init__`` or be one of the value types listed below.  The
records' field order is pinned, because the CLI's JSON and CSV keys follow it.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import types
from typing import NamedTuple

import pytest

import braidorders

# value types that stay dataclasses with nothing to validate: the convention
# holds a cached_property, and the oracle must not equal a plain tuple of its
# strand count
KEPT_DATACLASSES = {"GermConvention", "DehornoyOrder"}

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
        "undecided_count",
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


def unvalidated_dataclasses(module) -> list[str]:
    """Names of the dataclasses defined in the module with no __post_init__."""
    return sorted(
        name
        for name, cls in vars(module).items()
        if inspect.isclass(cls)
        and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and "__post_init__" not in vars(cls)
    )


def test_checker_finds_unvalidated_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Record:
        x: int

    @dataclasses.dataclass(frozen=True)
    class Value:
        x: int

        def __post_init__(self):
            pass

    class Row(NamedTuple):
        x: int

    module = types.ModuleType(__name__)
    module.Record, module.Value, module.Row = Record, Value, Row
    assert unvalidated_dataclasses(module) == ["Record"]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_dataclasses_validate_or_are_kept_values(module):
    assert set(unvalidated_dataclasses(module)) <= KEPT_DATACLASSES


@pytest.mark.parametrize("path, fields", RECORD_FIELDS.items(), ids=list(RECORD_FIELDS))
def test_record_is_a_named_tuple_with_pinned_fields(path, fields):
    module_name, name = path.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == fields
