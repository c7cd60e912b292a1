"""One-construction products against the multiply/invert chains they replaced.

``conjugate``, ``order_cmp``, ``ConjugatedOrder.sign`` and the triviality
check of ``zk_membership`` used to build their words as a chain of
``multiply`` and ``invert`` calls, each one a freely reduced ``BraidWord``.
They now concatenate the letters and reduce once.  Free reduction is
confluent, so every word must come out the same, including words that
cancel across both junctions, and a strand-count mismatch must raise the
same error.
"""

import random

import pytest

from braidorders import (
    BraidWord,
    ConjugatedOrder,
    DehornoyOrder,
    MalformedInputError,
    conjugate,
    dehornoy_sign,
    invert,
    linking_number,
    multiply,
    order_cmp,
    zk_membership,
)
from braidorders import orders
from braidorders.braids import inverse_letters

from words import random_word

# --- reference: the multiply/invert compositions -----------------------------


def reference_conjugate(b: BraidWord, h: BraidWord) -> BraidWord:
    return multiply(multiply(invert(h), b), h)


def reference_cmp_word(a: BraidWord, b: BraidWord) -> BraidWord:
    return multiply(invert(a), b)


def reference_zk_check_word(b: BraidWord, soul) -> BraidWord:
    soul_sorted = sorted(set(soul))
    exponents = tuple(linking_number(b, i, i + 1) for i in soul_sorted)
    candidate_letters: list[int] = []
    for i, e in zip(soul_sorted, exponents):
        candidate_letters.extend([i if e > 0 else -i] * abs(e))
    candidate = BraidWord(b.n, tuple(candidate_letters))
    return multiply(b, invert(candidate))


class RecordingOrder:
    """Handle reduction that keeps every word it is asked to sign."""

    def __init__(self, n: int):
        self.n = n
        self.seen: list[BraidWord] = []

    def sign(self, b: BraidWord) -> int:
        self.seen.append(b)
        return dehornoy_sign(b)


# --- inputs ------------------------------------------------------------------


def junction_pairs(rng: random.Random, n: int, count: int):
    """(b, h) pairs: random, empty on either side, and b built to cancel
    into h^-1 on its left and into h on its right."""
    empty = BraidWord(n)
    for _ in range(count):
        h = random_word(rng, n, rng.randrange(0, 9))
        b = random_word(rng, n, rng.randrange(0, 9))
        yield b, h
        yield empty, h
        yield b, empty
        left = h.letters[: rng.randrange(0, len(h) + 1)]
        right = inverse_letters(h.letters[: rng.randrange(0, len(h) + 1)])
        middle = random_word(rng, n, rng.randrange(0, 4)).letters
        yield BraidWord(n, left + middle + right), h
        yield BraidWord(n, left + right), h


def soul_words(rng: random.Random, n: int, soul, count: int):
    """Words whose permutation fixes every strand outside the soul's
    transpositions: soul letters, with squares of any generator mixed in
    so that some words are outside the soul subgroup."""
    for _ in range(count):
        letters: list[int] = []
        for _ in range(rng.randrange(0, 10)):
            if rng.random() < 0.25:
                k = rng.choice([k for i in range(1, n) for k in (i, -i)])
                letters.extend((k, k))
            else:
                i = rng.choice(soul)
                letters.append(rng.choice((i, -i)))
        yield BraidWord(n, tuple(letters))


# --- the two must agree ------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 6])
def test_conjugate_equals_the_composition(n):
    rng = random.Random(8300 + n)
    for b, h in junction_pairs(rng, n, 150):
        assert conjugate(b, h) == reference_conjugate(b, h), (b, h)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_conjugated_order_signs_the_same_word(n):
    rng = random.Random(8400 + n)
    for b, h in junction_pairs(rng, n, 80):
        base = RecordingOrder(n)
        got = ConjugatedOrder(base, h).sign(b)
        expected = reference_conjugate(b, h)
        assert base.seen == [expected], (b, h)
        assert got == dehornoy_sign(expected)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_order_cmp_signs_the_same_word(n):
    rng = random.Random(8500 + n)
    for b, a in junction_pairs(rng, n, 150):
        oracle = RecordingOrder(n)
        got = order_cmp(oracle, a, b)
        expected = reference_cmp_word(a, b)
        assert oracle.seen == [expected], (a, b)
        assert got == -dehornoy_sign(expected)


@pytest.mark.parametrize("n, soul", [(3, (1,)), (4, (1, 3)), (6, (1, 3, 5)), (6, (2, 4))])
def test_zk_membership_checks_the_same_word(n, soul, monkeypatch):
    checked: list[BraidWord] = []
    real = orders.is_trivial_braid

    def recording(w):
        checked.append(w)
        return real(w)

    monkeypatch.setattr(orders, "is_trivial_braid", recording)
    rng = random.Random(8600 + n + sum(soul))
    hits = misses = 0
    for b in soul_words(rng, n, soul, 300):
        checked.clear()
        got = zk_membership(b, soul)
        expected = reference_zk_check_word(b, soul)
        assert checked == [expected], b
        if got is None:
            assert dehornoy_sign(expected) != 0
            misses += 1
        else:
            assert dehornoy_sign(expected) == 0
            hits += 1
    assert hits and misses


def _message(call) -> str:
    with pytest.raises(MalformedInputError) as info:
        call()
    return str(info.value)


def test_strand_mismatch_raises_the_same_error():
    b3, b4 = BraidWord(3, (1, -2)), BraidWord(4, (3, 1))
    for b, h in ((b3, b4), (b4, b3)):
        assert _message(lambda: conjugate(b, h)) == _message(lambda: reference_conjugate(b, h))
        base = DehornoyOrder(h.n)
        assert _message(lambda: ConjugatedOrder(base, h).sign(b)) == _message(
            lambda: base.sign(reference_conjugate(b, h))
        )
        oracle = DehornoyOrder(3)
        assert _message(lambda: order_cmp(oracle, b, h)) == _message(lambda: reference_cmp_word(b, h))
