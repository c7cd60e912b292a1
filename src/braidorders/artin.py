"""The braid action on the free group of puncture loops.

Each generator acts by the substitution

    sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed (a "mirrored" convention swaps the two rules).
``letter_images`` holds that substitution as a fixed table over every signed
letter.  The ray orders transport a ray through one such table per braid
letter, in lazy stages (``nt._image_letters``).  One braid letter cancels at
most one letter on each side of a junction (``SINGLE_LETTER_BOUND``, proved
below), so a stage passes an image letter on as soon as one more stands
behind it.

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

# Bounded cancellation (Cooper 1987) for one braid letter: where the reduced
# images of u and v meet, for a freely reduced product u v, at most this many
# letters cancel on each side.  Proof, for either rule of either convention:
#
# * Each rule is the transposition x_i <-> x_{i+1} followed by one
#   conjugation y -> c y c^-1 of a generator y by a letter c:
#   x_{i+1} -> x_i x_{i+1} x_i^-1, or x_i -> x_{i+1}^-1 x_i x_{i+1}.  The
#   transposition renames letters and cancels nothing.
# * Write each letter y^e of a reduced word w as c y^e c^-1.  A pair cancels
#   only where the c^-1 after a y letter meets a c (inserted or of w), or a
#   c^-1 of w meets the c before a y letter.  Each such pair sits at one pair
#   of adjacent letters of w (y^e y^e, y^e c or c^-1 y^e), the pairs are
#   disjoint, and once they are removed a letter y^e faces a letter that is
#   not y^-e, so nothing cascades: the syllables of y stay intact.
# * So the reduced image of u v is the reduced images of u and v side by
#   side, less at most the one pair at the junction: one letter a side.
#
# The bound is met: u = v = y cancels c^-1 c.  A transport stage holds back
# this many letters and passes on the rest, which no later letter of the ray
# can cancel.
SINGLE_LETTER_BOUND = 1


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
