import random

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    BudgetExceededError,
    DehornoyOrder,
    dehornoy_sign,
    handle_reduce,
    invert,
    is_trivial_braid,
    multiply,
    order_cmp,
)
from braidorders import dehornoy

from words import random_word

RELATORS_B4 = [
    (1, 2, 1, -2, -1, -2),
    (2, 3, 2, -3, -2, -3),
    (1, 3, -1, -3),
]


def _insert(w: BraidWord, extra, pos) -> BraidWord:
    return BraidWord(w.n, w.letters[:pos] + tuple(extra) + w.letters[pos:])


def test_handle_free_output_single_main_sign(rng):
    for _ in range(400):
        w = random_word(rng, 4, rng.randrange(0, 10))
        hf = handle_reduce(w)
        if hf.main_index is None:
            assert hf.word.letters == ()
            continue
        signs = {k > 0 for k in hf.word.letters if abs(k) == hf.main_index}
        assert len(signs) == 1


def test_handle_reduce_examples():
    assert handle_reduce(BraidWord(3, (1, -1))).word.letters == ()
    hf = handle_reduce(BraidWord(3, (1, 2, -1)))
    assert hf.main_index == 1 and hf.main_sign == 1
    hf = handle_reduce(BraidWord(3, (-1, 2, 1)))
    # equals sigma2 sigma1 sigma2^-1: positive either way
    assert hf.main_sign == 1


def test_budget_error_carries_partial_state():
    with pytest.raises(BudgetExceededError) as info:
        handle_reduce(BraidWord(4, (1, 2, -1, 3, 2, -1, -2, 3, 1, -2)), budget=1)
    assert isinstance(info.value.partial, BraidWord)


def test_signs_of_named_elements():
    assert dehornoy_sign(BraidWord(3)) == 0
    assert dehornoy_sign(BraidWord(3, (1,))) == 1
    assert dehornoy_sign(BraidWord(3, (-2, 1))) == 1
    for k in range(0, 21):
        assert dehornoy_sign(BraidWord(3, (-1, -2) + (1,) * (k + 1))) == -1


def test_cmp_examples():
    one = BraidWord(3)
    s1 = BraidWord(3, (1,))
    assert order_cmp(DehornoyOrder(3), one, s1) == -1
    for k in range(0, 21):
        w = BraidWord(3, (-2, 1) + (1,) * k)
        assert order_cmp(DehornoyOrder(3), w, s1) == -1
    assert order_cmp(DehornoyOrder(3), s1, s1) == 0


def test_trivial_braids():
    assert is_trivial_braid(BraidWord(3))
    assert is_trivial_braid(BraidWord(3, (1, 2, 1, -2, -1, -2)))
    assert is_trivial_braid(BraidWord(4, (1, 3, -1, -3)))


def test_positive_cone_is_semigroup(rng):
    found = 0
    while found < 1000:
        a = random_word(rng, 4, rng.randrange(1, 7))
        b = random_word(rng, 4, rng.randrange(1, 7))
        if dehornoy_sign(a) == 1 and dehornoy_sign(b) == 1:
            found += 1
            assert dehornoy_sign(multiply(a, b)) == 1


def test_subword_property(rng):
    for _ in range(500):
        w = random_word(rng, 4, rng.randrange(0, 8))
        pos = rng.randrange(0, len(w.letters) + 1)
        i = rng.randrange(1, 4)
        bigger = _insert(w, (i,), pos)
        assert order_cmp(DehornoyOrder(4), w, bigger) == -1


def test_relator_insertion_invariance(rng):
    for _ in range(500):
        w = random_word(rng, 4, rng.randrange(0, 8))
        rel = rng.choice(RELATORS_B4)
        if rng.random() < 0.5:
            rel = tuple(-k for k in reversed(rel))
        pos = rng.randrange(0, len(w.letters) + 1)
        assert dehornoy_sign(_insert(w, rel, pos)) == dehornoy_sign(w)


def test_totality_antisymmetry(rng):
    for _ in range(1000):
        a = random_word(rng, 4, rng.randrange(0, 7))
        b = random_word(rng, 4, rng.randrange(0, 7))
        ab = order_cmp(DehornoyOrder(4), a, b)
        ba = order_cmp(DehornoyOrder(4), b, a)
        assert ab == -ba
        assert dehornoy_sign(invert(a)) == -dehornoy_sign(a)


def _equivalent_words(start: tuple, n: int, max_len: int, cap: int = 200_000):
    """Breadth-first closure of a raw word under inverse-pair insertion and
    deletion plus the defining relations, up to max_len.  Independent of
    handle reduction, so it serves as the word-problem cross-check."""
    from collections import deque

    moves = []
    for i in range(1, n - 1):
        a, b = i, i + 1
        for lhs, rhs in ((((a, b, a), (b, a, b))),):
            for flip in (1, -1):
                left = tuple(flip * k for k in (lhs if flip > 0 else lhs[::-1]))
                right = tuple(flip * k for k in (rhs if flip > 0 else rhs[::-1]))
                moves.append((left, right))
                moves.append((right, left))
    for i in range(1, n):
        for j in range(i + 2, n):
            for si in (i, -i):
                for sj in (j, -j):
                    moves.append(((si, sj), (sj, si)))
    alphabet = [x for i in range(1, n) for x in (i, -i)]

    seen = {tuple(start)}
    queue = deque(seen)
    while queue and len(seen) < cap:
        w = queue.popleft()
        candidates = []
        if len(w) + 2 <= max_len:
            for pos in range(len(w) + 1):
                for k in alphabet:
                    candidates.append(w[:pos] + (k, -k) + w[pos:])
        for pos in range(len(w) - 1):
            if w[pos] == -w[pos + 1]:
                candidates.append(w[:pos] + w[pos + 2 :])
        for old, new in moves:
            for pos in range(len(w) - len(old) + 1):
                if w[pos : pos + len(old)] == old:
                    candidates.append(w[:pos] + new + w[pos + len(old) :])
        for cand in candidates:
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)
    return seen


@pytest.mark.parametrize(
    "letters",
    [(), (1,), (-1,), (2, -1), (1, 2, -1), (-1, 2, 1), (2, 2, -1), (1, -2, 1, -2), (-2, -2, 1)],
)
def test_sign_against_independent_word_problem_search(letters):
    # dual route: enumerate the braid's equivalence class by raw relation
    # rewriting and read the sign off the single-signed-main representatives
    w = BraidWord(3, letters)
    cls = _equivalent_words(letters, 3, max_len=len(letters) + 4)
    assert len(cls) > 1 or not letters
    if dehornoy_sign(w) == 0:
        assert () in cls
        return
    assert () not in cls
    rep_signs = set()
    for rep in cls:
        if not rep:
            continue
        main = min(abs(k) for k in rep)
        occurring = [k for k in rep if abs(k) == main]
        if all(k > 0 for k in occurring):
            rep_signs.add(1)
        elif all(k < 0 for k in occurring):
            rep_signs.add(-1)
    assert rep_signs, "bounded search found no single-signed representative"
    assert rep_signs == {dehornoy_sign(w)}


def test_default_budget_handles_b4_length_12(rng):
    # the default budget must clear every word of length <= 12 in B4;
    # sampled here, with the worst observed step counts far below the cap
    for _ in range(300):
        w = random_word(rng, 4, 12)
        handle_reduce(w)


def _settled(letters) -> bool:
    """The lowest index occurs with one sign only (the empty word is not)."""
    if not letters:
        return False
    main = min(abs(k) for k in letters)
    return len({k for k in letters if abs(k) == main}) == 1


def _differential_words():
    rng = random.Random(20240817)
    words = [w for n, length in ((3, 8), (4, 6), (5, 4)) for w in BallSpec(n, length).words()]
    for n in (3, 4, 5, 6):
        words.extend(random_word(rng, n, rng.randrange(257)) for _ in range(12))
        words.extend(random_word(rng, n, 256) for _ in range(3))
    return words


def test_settled_shortcut_matches_handle_reduction(monkeypatch):
    # dehornoy_sign reads a settled word's sign without handle reduction;
    # the result must be handle reduction's on the whole B3 L8, B4 L6 and
    # B5 L4 balls and on random words to length 256, both branches taken
    words = _differential_words()
    expected = [handle_reduce(w).main_sign for w in words]
    reduced = []

    def spy(w, *args):
        reduced.append(w)
        return handle_reduce(w, *args)

    monkeypatch.setattr(dehornoy, "handle_reduce", spy)
    assert [dehornoy_sign(w) for w in words] == expected
    settled = sum(_settled(w.letters) for w in words)
    empty = sum(not w.letters for w in words)
    assert 0 < settled < len(words) - empty
    assert len(reduced) == len(words) - settled - empty
    assert not any(_settled(w.letters) or not w.letters for w in reduced)


def test_settled_words_signed_without_handle_reduction(monkeypatch):
    words = [w for w in _differential_words() if _settled(w.letters)]
    expected = [handle_reduce(w).main_sign for w in words]

    def refuse(w, *args):
        raise AssertionError(f"handle reduction called on {w}")

    monkeypatch.setattr(dehornoy, "handle_reduce", refuse)
    assert [dehornoy_sign(w) for w in words] == expected
    with pytest.raises(AssertionError, match="handle reduction called"):
        dehornoy_sign(BraidWord(3, (1, 2, -1)))


def test_settled_word_never_exhausts_the_budget():
    # sigma_1 then a word that needs many sigma_2-handle steps: reduction
    # runs out of a small budget, the settled sign does not need it
    w = BraidWord(4, (1,) + (2, 3, -2, -3) * 6)
    with pytest.raises(BudgetExceededError):
        handle_reduce(w, budget=2)
    assert handle_reduce(w).main_sign == dehornoy_sign(w) == 1
