"""Whole Artin maps: the reference the braid transport is checked against.

The library moves a ray lazily, letter by letter (``nt._image_letters``).
Here an automorphism of F_n is held whole, as the images of x_1 .. x_n, and
a braid word's map is composed left to right from the per-letter tables, so
that the action is a left action: map(a b) = map(a) o map(b) as functions.
Tests import it as ``from artin_reference import ...``; it is not a test
module itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from braidorders.braids import BraidWord, inverse_letters
from braidorders.errors import MalformedInputError
from braidorders.freewords import FreeLetters, FreeWord
from braidorders.nt import _letter_tables


def substitute(letters: Iterable[int], images: Mapping[int, FreeLetters]) -> FreeLetters:
    """The reduced image of a word under a substitution.

    ``images`` gives the image of every signed letter that occurs, inverse
    letters included, so the inner loop only looks up and cancels.
    """
    out: list[int] = []
    for k in letters:
        for m in images[k]:
            if out and out[-1] == -m:
                out.pop()
            else:
                out.append(m)
    return tuple(out)


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
            table[-j] = inverse_letters(img.letters)
        return table

    def apply_letters(self, letters: FreeLetters) -> FreeLetters:
        return substitute(letters, self._table)


def artin_map_of(b: BraidWord, mirrored: bool = False) -> ArtinMap:
    """The map of a braid word, composed left to right from its letters."""
    m = ArtinMap.identity(b.n)
    for letter in b.letters:
        images = _letter_tables(b.n, mirrored)[letter]
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
