"""The braid action on the free group of puncture loops.

Each generator acts by the substitution

    sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed (a "mirrored" convention swaps the two rules).
``letter_images`` holds that substitution as a fixed table over every signed
letter.  The ray orders transport a ray through one such table per braid
letter, in lazy stages that pass each image letter on as soon as no later
letter can cancel it (``nt._image_letters``).

Whole maps (``ArtinMap``) are the reference the property tests check the
transport against.  They compose so that the action is a left action: for
braid words read left to right, map(a b) = map(a) o map(b) as functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .braids import BraidWord
from .errors import MalformedInputError
from .freewords import FreeLetters, FreeWord, substitute

# Bounded cancellation (Cooper 1987) for one braid letter: where the images
# of u and v meet, for a freely reduced product u v, at most this many
# letters cancel on each side.  Checked exhaustively on short junctions by
# the tests.  A transport stage holds back this many letters and passes on
# the rest, which no later letter of the ray can cancel.
SINGLE_LETTER_BOUND = 3


@lru_cache(maxsize=None)
def letter_images(n: int, letter: int, mirrored: bool) -> Mapping[int, FreeLetters]:
    """Image of every signed letter of F_n under one braid letter (a shared,
    read-only table)."""
    i = abs(letter)
    if (letter > 0) != mirrored:
        moved = {i: (i, i + 1, -i), i + 1: (i,)}
    else:
        moved = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
    images: dict[int, FreeLetters] = {}
    for j in range(1, n + 1):
        img = moved.get(j, (j,))
        images[j] = img
        images[-j] = tuple(-k for k in reversed(img))
    return MappingProxyType(images)


@dataclass(frozen=True)
class ArtinMap:
    """An automorphism of F_n given by the images of x_1 .. x_n."""

    n: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(self.images) != self.n:
            raise MalformedInputError("need one image per generator")

    @staticmethod
    def identity(n: int) -> "ArtinMap":
        return ArtinMap(n, tuple(FreeWord(n, (j,)) for j in range(1, n + 1)))

    @cached_property
    def _table(self) -> dict[int, FreeLetters]:
        table: dict[int, FreeLetters] = {}
        for j, img in enumerate(self.images, start=1):
            table[j] = img.letters
            table[-j] = (~img).letters
        return table

    def apply_letters(self, letters: FreeLetters) -> FreeLetters:
        return substitute(letters, self._table)


def artin_map_of(b: BraidWord, mirrored: bool = False) -> ArtinMap:
    """The map of a braid word, composed left to right from its letters."""
    m = ArtinMap.identity(b.n)
    for letter in b.letters:
        images = letter_images(b.n, letter, mirrored)
        m = ArtinMap(b.n, tuple(FreeWord(b.n, m.apply_letters(images[j])) for j in range(1, b.n + 1)))
    return m


def apply_map(m: ArtinMap, w: FreeWord) -> FreeWord:
    if w.n != m.n:
        raise MalformedInputError("rank mismatch")
    return FreeWord(m.n, m.apply_letters(w.letters))


def compose(outer: ArtinMap, inner: ArtinMap) -> ArtinMap:
    """outer o inner (apply inner first)."""
    if outer.n != inner.n:
        raise MalformedInputError("rank mismatch")
    images = tuple(FreeWord(outer.n, outer.apply_letters(img.letters)) for img in inner.images)
    return ArtinMap(outer.n, images)
