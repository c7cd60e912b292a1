"""Exception types shared across the package, the one integer check of every
rank, strand count, length and exact coefficient, and the one non-square d."""

from __future__ import annotations

from math import isqrt


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
    """Handle reduction ran out of its step budget.

    Carries the partially reduced word so callers can inspect or resume.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class UndecidedComparisonError(RuntimeError):
    """Two rays agree beyond the comparison depth cap; no verdict is possible."""

    def __init__(self, depth: int):
        super().__init__(f"words agree beyond depth cap {depth}")


class StreamGrowthError(RuntimeError):
    """A stream's transport read (3 |b| + 16) 2^10 letters in a row without
    passing on an image letter under the braid b: the image of the stream
    grows too slowly for this budget."""


class CalibrationError(RuntimeError):
    """No orientation convention reproduces the handle-reduction oracle.

    This signals an implementation bug, never a tunable.
    """


class SoulValidationError(RuntimeError):
    """Recomputed soul generators disagree with the stored ones."""


class SearchFailureError(RuntimeError):
    """An exhaustive or sampled search found no element with the required property."""
