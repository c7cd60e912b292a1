"""A third exact sign oracle, Dynnikov coordinates, against handle reduction
on whole balls and against the Dehornoy rays on long random words.

Dynnikov coordinates (I. Dynnikov, "On a Yang-Baxter map and the Dehornoy
ordering", Russian Math. Surveys 57, 2002; Dehornoy, Dynnikov, Rolfsen and
Wiest, *Ordering Braids*, AMS 2008, ch. XII) act on Z^{2n} with a few integer
max/min operations per braid letter, so they reach lengths where handle
reduction is too slow to serve as a reference.
"""

import random

import pytest

from braidorders import BallSpec, catalog_order, dehornoy_sign

from words import random_word


def dynnikov_sign(b):
    """The Dehornoy sign of b: apply its letters, left to right, to the
    vector (a_1, b_1, ..., a_n, b_n) = (0, 1, ..., 0, 1); the sign is that of
    the first coordinate that moved, and 0 if none did."""
    start = [0, 1] * b.n
    x = list(start)
    for letter in b.letters:
        k = 2 * (abs(letter) - 1)
        a1, b1, a2, b2 = x[k:k + 4]
        if letter > 0:
            c = a1 - min(b1, 0) - a2 + max(b2, 0)
            x[k:k + 4] = (
                a1 + max(b1, 0) + max(max(b2, 0) - c, 0),
                b2 - max(c, 0),
                a2 + min(b2, 0) + min(min(b1, 0) + c, 0),
                b1 + max(c, 0),
            )
        else:
            d = a1 + min(b1, 0) - a2 - max(b2, 0)
            x[k:k + 4] = (
                a1 - max(b1, 0) - max(max(b2, 0) + d, 0),
                b2 + min(d, 0),
                a2 - min(b2, 0) - min(min(b1, 0) - d, 0),
                b1 - min(d, 0),
            )
    for value, first in zip(x, start):
        if value != first:
            return 1 if value > first else -1
    return 0


def test_dynnikov_matches_handle_reduction_on_whole_balls():
    words = [w for n, length in ((3, 7), (4, 5), (5, 4)) for w in BallSpec(n, length).words()]
    assert len(words) == 12261
    assert [w for w in words if dynnikov_sign(w) != dehornoy_sign(w)] == []


@pytest.mark.parametrize("n", [3, 4, 6])
def test_dehornoy_rays_match_dynnikov_on_long_words(n):
    order = catalog_order(f"dehornoy_{n}")
    rng = random.Random(f"dynnikov:{n}")
    for length in (256, 1024, 4096):
        for _ in range(3):
            w = random_word(rng, n, length)
            assert order.sign(w) == dynnikov_sign(w), (length, w)
