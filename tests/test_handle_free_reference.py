"""The lean handle-reduction result against the one it replaced.

The reference below is the earlier way ``handle_reduce`` packed its answer:
a validated ``BraidWord`` wrapped in a frozen ``HandleFreeWord`` dataclass,
with ``main_sign`` read off a set of the signs on the main index.  The
library now returns the strand count and the letters in a named tuple and
builds the ``BraidWord`` only when ``word`` is read.  Both run the same
handle steps, so on every word below they must give the same letters, main
index and sign (read here off the letters, the reference's way), and the
same partial word when the step budget runs out.
"""

import random
from dataclasses import dataclass

import pytest

from braidorders import BallSpec, BraidWord, BudgetExceededError, handle_reduce
from braidorders import dehornoy
from braidorders.dehornoy import DEFAULT_BUDGET, ZERO, _find_handle, _reduce_handle

from words import ball_size, random_word


# --- reference: the BraidWord-wrapping result --------------------------------


@dataclass(frozen=True)
class ReferenceHandleFreeWord:
    word: BraidWord
    main_index: int | None

    @property
    def main_sign(self) -> int:
        if self.main_index is None:
            return ZERO
        signs = {1 if k > 0 else -1 for k in self.word.letters if abs(k) == self.main_index}
        assert len(signs) == 1, "handle-free word has mixed signs on its main index"
        return signs.pop()


def reference_handle_reduce(w: BraidWord, budget: int = DEFAULT_BUDGET) -> ReferenceHandleFreeWord:
    letters = list(w.letters)
    steps = 0
    while True:
        found = _find_handle(letters)
        if found is None:
            break
        steps += 1
        if steps > budget:
            raise BudgetExceededError(
                f"handle reduction exceeded {budget} steps on a word of length {len(w)}",
                BraidWord(w.n, tuple(letters)),
            )
        letters = _reduce_handle(letters, *found)
    word = BraidWord(w.n, tuple(letters))
    main = min((abs(k) for k in letters), default=None)
    return ReferenceHandleFreeWord(word, main)


# --- the two must agree ------------------------------------------------------


def assert_same(w: BraidWord) -> None:
    got, ref = handle_reduce(w), reference_handle_reduce(w)
    assert got.n == w.n
    assert got.letters == ref.word.letters, w
    assert got.word == ref.word
    main = min((abs(k) for k in got.letters), default=None)
    assert main == ref.main_index, w
    assert ReferenceHandleFreeWord(got.word, main).main_sign == ref.main_sign, w


@pytest.mark.parametrize("n, radius", [(3, 8), (4, 6)])
def test_same_result_on_whole_balls(n, radius):
    words = 0
    for w in BallSpec(n, radius).words():
        assert_same(w)
        words += 1
    assert words == ball_size(n, radius)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_same_result_on_long_random_words(n):
    rng = random.Random(8100 + n)
    for length in (64, 96, 128, 192, 256):
        assert_same(random_word(rng, n, length))


@pytest.mark.parametrize("budget", [0, 1, 2, 5])
def test_same_partial_word_when_the_budget_runs_out(budget, monkeypatch):
    rng = random.Random(8200 + budget)
    raised = 0
    for n in (3, 4, 6):
        for _ in range(6):
            w = random_word(rng, n, rng.randrange(12, 40))
            try:
                reference_handle_reduce(w, budget)
            except BudgetExceededError as ref:
                with monkeypatch.context() as patched, pytest.raises(BudgetExceededError) as got:
                    patched.setattr(dehornoy, "DEFAULT_BUDGET", budget)
                    handle_reduce(w)
                assert str(got.value) == str(ref)
                assert got.value.partial == ref.partial
                raised += 1
            else:
                assert_same(w)
    assert raised > 0
