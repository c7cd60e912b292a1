"""Handle reduction against the two forms it replaced.

The reference below rescans the word from its first letter for every
handle and freely reduces the whole rebuilt word after every step, as
``handle_reduce`` once did; the library resumes each search at the first
letter that the last step changed.  Both must find the same handles in the
same order, so on every word below they give the same letters after the
same number of handle searches, and the same partial word when the step
budget runs out.

The reference also packs its answer the earlier way: a validated
``BraidWord`` wrapped in a frozen ``HandleFreeWord`` dataclass, with
``main_sign`` read off a set of the signs on the main index.  The library
returns the strand count and the letters in a named tuple and builds the
``BraidWord`` only when ``word`` is read, so the main index and sign read
off its letters must be the reference's.
"""

import random
from dataclasses import dataclass

import pytest

from braidorders import BallSpec, BraidWord, BudgetExceededError, handle_reduce
from braidorders import dehornoy
from braidorders.dehornoy import DEFAULT_BUDGET, ZERO
from braidorders.freewords import reduce_free

from words import ball_size, random_word


# --- reference: rescan from letter 0, rebuild the whole word -----------------


def reference_find_handle(letters: list[int]) -> tuple[int, int] | None:
    for t, k in enumerate(letters):
        i = abs(k)
        for p in range(t - 1, -1, -1):
            ip = abs(letters[p])
            if ip > i:
                continue
            if ip < i:
                break
            if letters[p] == -k:
                return p, t
            break
    return None


def reference_reduce_handle(letters: list[int], p: int, t: int) -> list[int]:
    opener = letters[p]
    i = abs(opener)
    e = 1 if opener > 0 else -1
    replacement: list[int] = []
    for k in letters[p + 1 : t]:
        if abs(k) == i + 1:
            d = 1 if k > 0 else -1
            replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            replacement.append(k)
    return list(reduce_free(letters[:p] + replacement + letters[t + 1 :]))


@dataclass(frozen=True)
class ReferenceHandleFreeWord:
    word: BraidWord
    main_index: int | None
    searches: int

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
        found = reference_find_handle(letters)
        if found is None:
            break
        steps += 1
        if steps > budget:
            raise BudgetExceededError(
                f"handle reduction exceeded {budget} steps on a word of length {len(w)}",
                BraidWord(w.n, tuple(letters)),
            )
        letters = reference_reduce_handle(letters, *found)
    word = BraidWord(w.n, tuple(letters))
    main = min((abs(k) for k in letters), default=None)
    return ReferenceHandleFreeWord(word, main, steps + 1)


# --- the two must agree ------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """handle_reduce with its handle searches counted: (reduce, searches),
    where searches() is the count since the last reduce."""
    searches = [0]
    find_handle = dehornoy._find_handle

    def counting(letters, start):
        searches[0] += 1
        return find_handle(letters, start)

    monkeypatch.setattr(dehornoy, "_find_handle", counting)

    def reduce(w):
        searches[0] = 0
        return handle_reduce(w)

    return reduce, lambda: searches[0]


def assert_same(w: BraidWord, counted) -> None:
    reduce, searches = counted
    got, ref = reduce(w), reference_handle_reduce(w)
    assert got.n == w.n
    assert got.letters == ref.word.letters, w
    assert searches() == ref.searches, w
    assert got.word == ref.word
    main = min((abs(k) for k in got.letters), default=None)
    assert main == ref.main_index, w
    assert ReferenceHandleFreeWord(got.word, main, ref.searches).main_sign == ref.main_sign, w


@pytest.mark.parametrize("n, radius", [(3, 8), (4, 6)])
def test_same_result_on_whole_balls(n, radius, counted):
    words = 0
    for w in BallSpec(n, radius).words():
        assert_same(w, counted)
        words += 1
    assert words == ball_size(n, radius)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_same_result_on_long_random_words(n, counted):
    rng = random.Random(8100 + n)
    for length in (16, 32, 64, 96, 128, 192, 256, 384, 512):
        for _ in range(2):
            assert_same(random_word(rng, n, length), counted)


def assert_same_partial(w: BraidWord, budget: int, monkeypatch) -> bool:
    """Whether the reference runs out of ``budget`` steps on w; if it does,
    the library raises the same error with the same partial word, and
    otherwise it returns the same letters."""
    try:
        ref = reference_handle_reduce(w, budget)
    except BudgetExceededError as spent:
        with monkeypatch.context() as patched, pytest.raises(BudgetExceededError) as got:
            patched.setattr(dehornoy, "DEFAULT_BUDGET", budget)
            handle_reduce(w)
        assert str(got.value) == str(spent)
        assert got.value.partial == spent.partial
        return True
    with monkeypatch.context() as patched:
        patched.setattr(dehornoy, "DEFAULT_BUDGET", budget)
        assert handle_reduce(w).letters == ref.word.letters
    return False


@pytest.mark.parametrize("budget", [0, 1, 2, 5])
def test_same_partial_word_when_the_budget_runs_out(budget, monkeypatch):
    rng = random.Random(8200 + budget)
    raised = 0
    for n in (3, 4, 6):
        for _ in range(6):
            raised += assert_same_partial(random_word(rng, n, rng.randrange(12, 40)), budget, monkeypatch)
    assert raised > 0


@pytest.mark.parametrize("n", [3, 4, 6])
def test_budget_at_and_just_below_the_step_count(n, monkeypatch):
    rng = random.Random(8300 + n)
    for length in (8, 24, 48, 96, 160):
        w = random_word(rng, n, length)
        steps = reference_handle_reduce(w).searches - 1
        if steps:
            assert assert_same_partial(w, steps - 1, monkeypatch)
        assert not assert_same_partial(w, steps, monkeypatch)
