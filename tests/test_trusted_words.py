"""Words built without BraidWord's check, and the transport's dict tables,
against the code they replace.

``BallSpec.words``, ``invert``, ``multiply``, ``conjugate`` and the product
inside ``order_cmp`` (of an oracle other than a ray order, which compares
images) build their words through ``braids._trusted_word``; each
must equal the word the checked constructor makes from the same letters.  The
transport reads ``nt._letter_tables``; each dict must equal the per-letter
table the library built before (kept here as ``reference_letter_images``).
"""

import itertools
import random

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    MalformedInputError,
    conjugate,
    invert,
    multiply,
)
from braidorders.braids import inverse_letters
from braidorders.freewords import reduce_free
from braidorders.nt import _letter_tables, order_cmp

from words import ball_size, random_word


def reference_letter_images(n, letter, mirrored):
    """The per-letter table as the library built it before the dict tables."""
    i = abs(letter)
    if (letter > 0) != mirrored:
        moved = {i: (i, i + 1, -i), i + 1: (i,)}
    else:
        moved = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
    images = {}
    for j in range(1, n + 1):
        img = moved.get(j, (j,))
        images[j] = img
        images[-j] = tuple(-k for k in reversed(img))
    return images


def same_word(trusted, checked):
    """Equal as values and in every reading a caller can make."""
    return (
        type(trusted) is BraidWord
        and trusted == checked
        and hash(trusted) == hash(checked)
        and (trusted.n, trusted.letters) == (checked.n, checked.letters)
        and type(trusted.letters) is tuple
        and repr(trusted) == repr(checked)
    )


def reduced_words(n, length):
    """The ball's words of one length, independently: every letter tuple of
    the length in lexicographic order of the ball's letter ranks, kept when
    it is freely reduced."""
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    for letters in itertools.product(alphabet, repeat=length):
        if reduce_free(letters) == letters:
            yield letters


@pytest.mark.parametrize("n, max_length", [(3, 8), (4, 6), (6, 4)])
def test_ball_words_equal_checked_words_in_order(n, max_length):
    words = list(BallSpec(n, max_length).words())
    expected = [letters for length in range(max_length + 1) for letters in reduced_words(n, length)]
    assert len(words) == len(expected) == ball_size(n, max_length)
    for w, letters in zip(words, expected):
        assert w.letters == letters
        assert same_word(w, BraidWord(n, w.letters))


def test_ball_still_checks_the_strand_count():
    with pytest.raises(MalformedInputError):
        next(BallSpec(1, 2).words())


class Recorder:
    """An oracle that keeps the words it is asked to sign."""

    def __init__(self):
        self.words = []

    def sign(self, w):
        self.words.append(w)
        return 1 if w.letters else 0


def word_pairs(rng, count):
    """Random pairs of one strand count, a third of them built to cancel:
    completely (b = a^-1) or down to a shared middle."""
    for index in range(count):
        n = rng.choice((3, 4, 5, 6))
        a = random_word(rng, n, rng.randrange(0, 13))
        if index % 3 == 0:
            b = invert(a)
        elif index % 3 == 1:
            cut = rng.randrange(0, len(a) + 1)
            tail = random_word(rng, n, rng.randrange(0, 6))
            b = BraidWord(n, inverse_letters(a.letters[cut:]) + tail.letters)
        else:
            b = random_word(rng, n, rng.randrange(0, 13))
        yield a, b


def test_products_equal_checked_construction():
    rng = random.Random(140)
    empty_products = 0
    for a, b in word_pairs(rng, 600):
        n = a.n
        product = multiply(a, b)
        assert same_word(product, BraidWord(n, a.letters + b.letters))
        empty_products += not product.letters
        assert same_word(invert(a), BraidWord(n, inverse_letters(a.letters)))
        assert same_word(conjugate(a, b), BraidWord(n, inverse_letters(b.letters) + a.letters + b.letters))
        oracle = Recorder()
        order_cmp(oracle, a, b)
        (asked,) = oracle.words
        assert same_word(asked, BraidWord(n, inverse_letters(a.letters) + b.letters))
    assert empty_products >= 200
    assert same_word(conjugate(BraidWord(4), BraidWord(4, (1, -3, 2))), BraidWord(4))


def test_dict_tables_equal_the_per_letter_tables():
    for n in range(2, 9):
        for mirrored in (False, True):
            tables = _letter_tables(n, mirrored)
            assert sorted(tables) == sorted(k for i in range(1, n) for k in (i, -i))
            for letter, table in tables.items():
                assert type(table) is dict
                reference = reference_letter_images(n, letter, mirrored)
                assert table == reference and list(table) == list(reference)
