"""The value types on ``errors.Value`` behave as the frozen dataclasses they
replaced, except that a field which is not iterable is malformed input, not
a ``TypeError``; and the package starts without ``dataclasses``.

The twins below are the old definitions of ``BraidWord``, ``GeodesicSpec``
and ``NTOrder``, each a ``@dataclass(frozen=True)`` with its old
``__post_init__``, under the same names so that their reprs are comparable
byte for byte.  The package classes are read through their modules.
"""

import itertools
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from braidorders import braids, catalog, catalog_order, nt
from braidorders.errors import MalformedInputError, check_integer
from braidorders.freewords import FreeWord, is_letter, reduce_free
from braidorders.planar import DEFAULT_DEPTH_CAP, FROZEN_CONVENTION, GermConvention

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple = ()

    def __post_init__(self):
        check_integer(self.n, "strand count", 2)
        for k in self.letters:
            if not is_letter(k, self.n - 1):
                raise MalformedInputError(
                    f"letter {k!r} out of range for B_{self.n} (need 1 <= |k| <= {self.n - 1})"
                )
        object.__setattr__(self, "letters", reduce_free(self.letters))


@dataclass(frozen=True)
class GeodesicSpec:
    name: str
    word: object
    separating_depths: tuple = ()
    soul_generators: tuple = ()

    def __post_init__(self):
        if not (hasattr(self.word, "n") and hasattr(self.word, "__iter__")):
            raise MalformedInputError(f"spec word must be a free word or a stream, got {self.word!r}")
        check_integer(self.n, "strand count", 2)
        for d in self.separating_depths:
            check_integer(d, "separating depth", 1)
        for i in self.soul_generators:
            check_integer(i, "soul generator", 1)
        object.__setattr__(self, "separating_depths", tuple(self.separating_depths))
        object.__setattr__(self, "soul_generators", tuple(sorted(set(self.soul_generators))))
        depths = self.separating_depths
        if list(depths) != sorted(set(depths)):
            raise MalformedInputError("separating depths must be strictly increasing positives")
        soul = self.soul_generators
        for i, j in zip(soul, soul[1:]):
            if j - i < 2:
                raise MalformedInputError(f"soul generators {i}, {j} are adjacent")
        if soul and soul[-1] > self.n - 1:
            raise MalformedInputError(f"soul generator {soul[-1]} out of range")

    @property
    def n(self) -> int:
        return self.word.n


@dataclass(frozen=True)
class NTOrder:
    spec: GeodesicSpec
    convention: GermConvention = FROZEN_CONVENTION
    depth_cap: int = DEFAULT_DEPTH_CAP

    def __post_init__(self):
        if not isinstance(self.spec, GeodesicSpec):
            raise MalformedInputError(f"order spec must be a GeodesicSpec, got {self.spec!r}")
        if not isinstance(self.convention, GermConvention):
            raise MalformedInputError(f"order convention must be a GermConvention, got {self.convention!r}")
        check_integer(self.depth_cap, "depth cap", 1)


def same_values(twins, values):
    """Twins and values agree on repr and hash one by one, and on == pair by pair."""
    assert [repr(t) for t in twins] == [repr(v) for v in values]
    assert [hash(t) for t in twins] == [hash(v) for v in values]
    for (s, t), (u, v) in zip(itertools.product(twins, repeat=2), itertools.product(values, repeat=2)):
        assert (s == t) == (u == v), (u, v)


def test_braid_words_match_their_twins():
    ball = [w.letters for w in braids.BallSpec(3, 5).words()]
    # the ball's words, and each written with a cancelling pair or on B_4
    args = [(3, w) for w in ball] + [(3, w + (2, -2)) for w in ball[::7]] + [(4, w) for w in ball[::5]]
    same_values([BraidWord(*a) for a in args], [braids.BraidWord(*a) for a in args])
    assert BraidWord(3) == BraidWord(3, ()) and braids.BraidWord(3) == braids.BraidWord(3, ())


def test_catalog_specs_and_orders_match_their_twins():
    twin_specs, specs = [], []
    for spec in catalog().values():
        fields = (spec.name, spec.word, spec.separating_depths, spec.soul_generators)
        twin_specs.append(GeodesicSpec(*fields))
        specs.append(nt.GeodesicSpec(*fields))
        # a list of depths and an unsorted soul with a repeat are normalised
        twin_specs.append(GeodesicSpec(spec.name, spec.word, list(fields[2]), fields[3][::-1] * 2))
        specs.append(nt.GeodesicSpec(spec.name, spec.word, list(fields[2]), fields[3][::-1] * 2))
    same_values(twin_specs, specs)
    twin_orders, orders = [], []
    other = GermConvention(False, True, False)
    for twin_spec, spec in zip(twin_specs, specs):
        twin_orders += [NTOrder(twin_spec), NTOrder(twin_spec, other), NTOrder(twin_spec, depth_cap=7)]
        orders += [nt.NTOrder(spec), nt.NTOrder(spec, other), nt.NTOrder(spec, depth_cap=7)]
    same_values(twin_orders, orders)


WORD = FreeWord(3, (-1, -2))
BAD_INPUT = {
    "BraidWord": [(), (3.5, (1,)), ("3", ()), (True, ()), (1, ()), (3, (3,)), (3, (0,)), (3, (True, 2))],
    "GeodesicSpec": [
        ("x",), ("x", None), ("x", FreeWord(1, (1,))), ("x", WORD, (0,)), ("x", WORD, (1.0,)),
        ("x", WORD, (2, 1)), ("x", WORD, (1, 1)), ("x", WORD, (), (1, 2)), ("x", WORD, (), (3,)),
        ("x", WORD, (), (0,)),
    ],
    "NTOrder": [(), (None,), ("spec", None), ("spec", FROZEN_CONVENTION, 0), ("spec", None, 5),
                ("spec", FROZEN_CONVENTION, 1.5), ("spec", FROZEN_CONVENTION, True)],
}


def outcome(cls, args):
    try:
        cls(*args)
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", list(BAD_INPUT))
def test_bad_input_raises_as_the_twins_do(name):
    twin_cls, cls = globals()[name], getattr(nt if name != "BraidWord" else braids, name)
    for args in BAD_INPUT[name]:
        twin_spec, spec = GeodesicSpec("x", WORD), nt.GeodesicSpec("x", WORD)
        twin_args = tuple(twin_spec if a == "spec" else a for a in args)
        new_args = tuple(spec if a == "spec" else a for a in args)
        twin, new = outcome(twin_cls, twin_args), outcome(cls, new_args)
        assert twin is not None and new is not None, args
        assert twin[0] is new[0], (args, twin, new)
        if twin[0] is MalformedInputError:
            assert twin[1] == new[1], args


# a field that is not iterable: a twin (FreeWord has none) raised TypeError,
# the value names the field
NOT_ITERABLE = [
    (braids.BraidWord, BraidWord, (3, None), "braid letters must be iterable, got None"),
    (FreeWord, None, (3, None), "free letters must be iterable, got None"),
    (nt.GeodesicSpec, GeodesicSpec, ("x", WORD, None), "separating depths must be iterable, got None"),
    (nt.GeodesicSpec, GeodesicSpec, ("x", WORD, (), None), "soul generators must be iterable, got None"),
]


@pytest.mark.parametrize("cls, twin_cls, args, message", NOT_ITERABLE)
def test_a_field_that_is_not_iterable_is_malformed(cls, twin_cls, args, message):
    assert outcome(cls, args) == (MalformedInputError, message)
    if twin_cls is not None:
        assert outcome(twin_cls, args)[0] is TypeError


def test_fields_refuse_assignment_and_deletion():
    spec = catalog()["dehornoy_3"]
    pairs = [
        (BraidWord(3, (1,)), braids.BraidWord(3, (1,))),
        (GeodesicSpec(spec.name, spec.word), nt.GeodesicSpec(spec.name, spec.word)),
        (NTOrder(GeodesicSpec(spec.name, spec.word)), nt.NTOrder(spec)),
    ]
    for value in itertools.chain.from_iterable(pairs):
        name = next(iter(type(value).__annotations__))
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1


def test_a_value_never_equals_another_class():
    word = braids.BraidWord(3, (1,))
    assert word.__eq__((3, (1,))) is NotImplemented
    assert word != (3, (1,)) and word != BraidWord(3, (1,))
    # a subclass with no fields of its own keeps its base's fields
    image = nt._image(catalog_order("dehornoy_3"), word)
    assert type(image)._fields == ("n", "letters", "label")
    assert repr(image).startswith("_FiniteImage(n=3, letters=functools.partial(")


def test_the_package_starts_without_dataclasses():
    code = "import sys, braidorders, braidorders.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: no site hooks, so only the package's own imports count
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
