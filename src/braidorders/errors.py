"""Exception types shared across the package, the one integer check of every
rank, strand count, length and exact coefficient, the one non-square d, and
Value, the immutable base of every validated value type (braid and free
words, streams, specs, orders, conventions)."""

from __future__ import annotations

from math import isqrt


class Value:
    """An immutable value compared by its fields: the annotated names of its
    class, after those of its bases.  A subclass's __init__ checks its
    arguments and stores the fields with self.__dict__.update; equality (of
    two values of one class), hash and repr, Name(field=value, ...), read the
    fields alone, so a cached_property beside them stays out; no attribute
    can be set or deleted."""

    _fields = ()  # the field names, set on each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        for name in self._fields:  # as tuples compare: identity, then ==
            x, y = mine[name], theirs[name]
            if x is not y and not x == y:
                return False
        return True

    def __hash__(self) -> int:
        return hash(tuple([self.__dict__[name] for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")


class MalformedInputError(ValueError):
    """A braid word, free word, or spec value violates its basic contract."""


def check_integer(value, name: str, minimum: int | None = None) -> None:
    """Raise MalformedInputError unless value is an int (a bool is not) of at
    least minimum, when one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise MalformedInputError(f"{name} must be >= {minimum}, got {value}")


def check_non_square(d: int) -> None:
    """Raise MalformedInputError unless the integer d is positive and not a square."""
    if d <= 0 or isqrt(d) ** 2 == d:
        raise MalformedInputError(f"d must be a positive non-square, got {d}")


class BudgetExceededError(RuntimeError):
    """Handle reduction ran out of its step budget, a finite ray's scan of its
    letter budget, or a stream's transport of its patience (no image letter
    in (3 |b| + 16) 2^10 letters).  Carries the partially reduced word so
    callers can inspect or resume; a scan or a stalled stream carries None."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class UndecidedComparisonError(RuntimeError):
    """Two rays agree beyond the comparison depth cap; no verdict is possible."""

    def __init__(self, depth: int):
        super().__init__(f"words agree beyond depth cap {depth}")


class SearchFailureError(RuntimeError):
    """An exhaustive or sampled search found no element with the required property."""
