"""Random braid words for the property and long-word tests.

Tests import it as ``from words import random_word``; it is not a test
module itself.
"""

from __future__ import annotations

from braidorders.braids import BraidWord


def random_word(rng, n: int, length: int) -> BraidWord:
    """A uniformly random freely reduced word of exactly the given length."""
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    letters: list[int] = []
    for _ in range(length):
        choices = [k for k in alphabet if not letters or k != -letters[-1]]
        letters.append(rng.choice(choices))
    return BraidWord(n, tuple(letters))
