"""Random braid words for the property and long-word tests, the size of a
ball of words, and a braid's image of a ray as a spec.

Tests import it as ``from words import random_word``; it is not a test
module itself.
"""

from __future__ import annotations

from dataclasses import replace

from braidorders.braids import BraidWord
from braidorders.freewords import FreeWord
from braidorders.nt import GeodesicSpec, NTOrder, moved_order
from braidorders.planar import GermConvention


def random_word(rng, n: int, length: int) -> BraidWord:
    """A uniformly random freely reduced word of exactly the given length."""
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    letters: list[int] = []
    for _ in range(length):
        choices = [k for k in alphabet if not letters or k != -letters[-1]]
        letters.append(rng.choice(choices))
    return BraidWord(n, tuple(letters))


def ball_size(n: int, max_length: int) -> int:
    """The number of freely reduced words of length <= max_length in B_n:
    g (g - 1)^(l - 1) of each length l >= 1 over g = 2 (n - 1) letters."""
    g = 2 * (n - 1)
    return 1 + sum(g * (g - 1) ** (ell - 1) for ell in range(1, max_length + 1))


def moved_spec(b: BraidWord, spec: GeodesicSpec, conv: GermConvention) -> GeodesicSpec:
    """The spec of b's image of the ray, moved_order's: a finite image
    drained into a FreeWord, a stream transported as it is read."""
    moved = moved_order(NTOrder(spec, conv), b).spec
    if spec.type_tag == "finite":
        return replace(moved, word=FreeWord(spec.n, tuple(moved.word)))
    return moved
