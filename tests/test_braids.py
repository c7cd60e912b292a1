import tracemalloc

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    MalformedInputError,
    catalog_order,
    converge_conjugates_experiment,
    invert,
    limit_probe_experiment,
    linking_number,
    multiply,
    parse_braid,
    permutation_of,
    sigma,
)

from words import ball_size, random_word


def test_free_reduction_cancels_inverse_pairs():
    assert BraidWord(3, (1, -1)).letters == ()
    assert BraidWord(3, (1, 2, -2, -1)).letters == ()
    assert BraidWord(3, (1, 2, 1)).letters == (1, 2, 1)


def test_free_reduce_idempotent(rng):
    for _ in range(200):
        w = random_word(rng, 4, rng.randrange(0, 10))
        assert BraidWord(w.n, w.letters) == w


def test_letter_out_of_range_rejected():
    with pytest.raises(MalformedInputError):
        BraidWord(3, (3,))
    with pytest.raises(MalformedInputError):
        BraidWord(3, (0,))
    # bool is an int subclass, so True would otherwise read as the letter 1
    for letters in ((True, 2), (True, -1), (False,)):
        with pytest.raises(MalformedInputError) as info:
            BraidWord(3, letters)
        assert str(info.value) == f"letter {letters[0]!r} out of range for B_3 (need 1 <= |k| <= 2)"


def test_strand_count_must_be_an_integer():
    # a float or bool count used to build a word that failed later, in
    # permutation_of, with a TypeError
    for n in (3.5, 3.0, "3", None, True):
        with pytest.raises(MalformedInputError) as info:
            BraidWord(n, (1, 2) if n is not True else ())
        assert str(info.value) == f"strand count must be an integer, got {n!r}"
    with pytest.raises(MalformedInputError, match="strand count must be >= 2, got 1"):
        BraidWord(1)
    with pytest.raises(MalformedInputError, match="must be an integer"):
        list(BallSpec(3.0, 2).words())
    assert permutation_of(BraidWord(3, (1, 2))) == (3, 1, 2)


def test_ball_spec_checks_its_fields():
    # a float length used to fail in count() with a TypeError, a float strand
    # count to count 22.0 words, and a bool to pass for an integer
    for n, max_length in ((3, 2.5), (3, "2"), (3, True), (3, None)):
        with pytest.raises(MalformedInputError) as info:
            BallSpec(n, max_length)
        assert str(info.value) == f"max_length must be an integer, got {max_length!r}"
    for n in (2.5, 3.0, True, "3"):
        with pytest.raises(MalformedInputError) as info:
            BallSpec(n, 3)
        assert str(info.value) == f"strand count must be an integer, got {n!r}"
    with pytest.raises(MalformedInputError, match="strand count must be >= 2, got 1"):
        BallSpec(1, 3)
    with pytest.raises(MalformedInputError, match="max_length must be >= 0"):
        BallSpec(3, -1)
    assert len(list(BallSpec(2, 3).words())) == 7


def test_multiply_and_invert():
    assert multiply(BraidWord(3, (1,)), BraidWord(3, (-1,))).letters == ()
    assert invert(BraidWord(3, (1, -2))).letters == (2, -1)
    assert multiply(BraidWord(4, (1, 2)), BraidWord(4, (-2, 3))).letters == (1, 3)
    with pytest.raises(MalformedInputError):
        multiply(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_product_length_and_inverse_cancellation(rng):
    for _ in range(300):
        a = random_word(rng, 4, rng.randrange(0, 8))
        b = random_word(rng, 4, rng.randrange(0, 8))
        assert len(multiply(a, b)) <= len(a) + len(b)
        assert multiply(a, invert(a)).letters == ()


def test_permutation_of_examples():
    assert permutation_of(BraidWord(3)) == (1, 2, 3)
    assert permutation_of(BraidWord(3, (1,))) == (2, 1, 3)
    assert permutation_of(BraidWord(3, (1, 2, 1))) == (3, 2, 1)


def test_permutation_homomorphism(rng):
    for _ in range(1000):
        a = random_word(rng, 5, rng.randrange(0, 7))
        b = random_word(rng, 5, rng.randrange(0, 7))
        pa, pb, pab = permutation_of(a), permutation_of(b), permutation_of(multiply(a, b))
        assert sorted(pa) == [1, 2, 3, 4, 5]
        # composed in word order: a first, then b
        assert all(pab[i - 1] == pb[pa[i - 1] - 1] for i in range(1, 6))


def test_permutation_inverse(rng):
    for _ in range(100):
        a = random_word(rng, 5, rng.randrange(0, 7))
        pa, pinv = permutation_of(a), permutation_of(invert(a))
        assert all(pa[pinv[i - 1] - 1] == pinv[pa[i - 1] - 1] == i for i in range(1, 6))


def test_sigma_checks_its_index_and_power():
    assert sigma(3, 2, -2) == BraidWord(3, (-2, -2))
    # a float power used to raise TypeError, and True to pass for 1
    for i, power, message in (
        (1, 2.0, "generator power must be an integer, got 2.0"),
        (1, True, "generator power must be an integer, got True"),
        (True, 1, "generator index must be an integer, got True"),
        (1.0, 1, "generator index must be an integer, got 1.0"),
    ):
        with pytest.raises(MalformedInputError, match=message):
            sigma(3, i, power)
    # the conjugate families build their conjugators from sigma
    base, pattern = catalog_order("dehornoy_3"), (2, BraidWord(3, (1,)))
    with pytest.raises(MalformedInputError, match="generator power must be an integer, got -1.5"):
        converge_conjugates_experiment(base, pattern, [1.5], BallSpec(3, 2))
    with pytest.raises(MalformedInputError, match="generator power must be an integer, got -1.5"):
        limit_probe_experiment(base, pattern, [1.5], BallSpec(3, 1))


def test_linking_number_examples():
    for k in range(1, 6):
        assert linking_number(BraidWord(2, (1,) * k), 1, 2) == k
    assert linking_number(BraidWord(2, (1, -1)), 1, 2) == 0
    w = BraidWord(5, (1, 1, -3, -3, -3))
    assert linking_number(w, 1, 2) == 2
    assert linking_number(w, 3, 4) == -3
    assert linking_number(w, 1, 3) == 0
    with pytest.raises(MalformedInputError):
        linking_number(w, 3, 2)


def test_linking_number_insertion_invariance(rng):
    for _ in range(1000):
        w = random_word(rng, 4, rng.randrange(0, 8))
        pos = rng.randrange(0, len(w.letters) + 1)
        k = rng.choice([1, -1, 2, -2, 3, -3])
        padded = BraidWord(4, w.letters[:pos] + (k, -k) + w.letters[pos:])
        i = rng.randrange(1, 4)
        j = rng.randrange(i + 1, 5)
        assert linking_number(padded, i, j) == linking_number(w, i, j)


def test_ball_enumeration_order_and_counts():
    words = [w.letters for w in BallSpec(3, 1).words()]
    assert words == [(), (1,), (-1,), (2,), (-2,)]
    assert len(list(BallSpec(3, 2).words())) == 17
    # 1 + sum of 4 * 3^(l-1)
    for L in range(0, 6):
        expected = 1 + sum(4 * 3 ** (ell - 1) for ell in range(1, L + 1))
        assert ball_size(3, L) == len(list(BallSpec(3, L).words())) == expected


@pytest.mark.parametrize("n,L", [(3, 5), (4, 4), (4, 5)])
def test_ball_no_duplicates_no_unreduced(n, L):
    seen = set()
    for w in BallSpec(n, L).words():
        assert w.letters not in seen
        seen.add(w.letters)
        assert BraidWord(w.n, w.letters) == w
        assert len(w) <= L
    assert len(seen) == ball_size(n, L)


def reference_ball_letters(n: int, max_length: int):
    """The enumeration that kept each whole sphere as its frontier."""
    yield ()
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    frontier = [()]
    for _ in range(max_length):
        new_frontier = []
        for prefix in frontier:
            last = prefix[-1] if prefix else 0
            for k in alphabet:
                if k == -last:
                    continue
                new_frontier.append(prefix + (k,))
        yield from new_frontier
        frontier = new_frontier


@pytest.mark.parametrize("n,L", [(2, 3), (3, 0), (3, 1), (3, 2), (3, 8), (4, 6), (4, 7), (6, 4)])
def test_ball_order_matches_whole_sphere_frontier(n, L):
    words = BallSpec(n, L).words()
    for count, (w, expected) in enumerate(zip(words, reference_ball_letters(n, L), strict=True)):
        assert w.letters == expected, count
        assert w.n == n
    assert count + 1 == ball_size(n, L)


def test_ball_enumeration_memory_is_bounded():
    # B4 L7 has 117,187 words; a whole last sphere of tuples took 11 MB
    tracemalloc.start()
    try:
        for _ in BallSpec(4, 7).words():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ball_independent_cursors():
    spec = BallSpec(3, 2)
    it1 = spec.words()
    it2 = spec.words()
    next(it1)
    next(it1)
    assert next(it2).letters == ()


def test_braid_text_round_trip(rng):
    assert parse_braid("1 -2 1", 3).letters == (1, -2, 1)
    assert parse_braid("", 3).letters == ()
    with pytest.raises(MalformedInputError):
        parse_braid("1 x", 3)
    for _ in range(50):
        w = random_word(rng, 4, rng.randrange(0, 9))
        assert parse_braid(str(w), 4) == w
