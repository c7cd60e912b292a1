"""The shared prefix of Sturmian and custom streams against fresh reads.

A Sturmian or custom word computes each letter once and keeps the letters
read so far on the word object; every reader walks that prefix, then extends
it.  The references here read the word's source afresh (``_source()``: the
letters computed from the slope, or a new call of the letters function,
checked), never through the prefix.
"""

import copy
import itertools
import pickle
from itertools import islice

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    BraidWord,
    BudgetExceededError,
    Custom,
    GeodesicSpec,
    MalformedInputError,
    NTOrder,
    UndecidedComparisonError,
    catalog,
    divergence_depth,
    parse_infinite_word,
)
from braidorders.nt import _image_letters, moved_order
from braidorders.planar import EQUAL

from words import moved_spec, random_word

LENGTH = 2000
STREAMS = ("sturmian_3", "sturmian_4", "sturmian_5", "sturmian_6", "mixed_4")


def fresh(word, length=LENGTH):
    return list(islice(word._source(), length))


class CountingRay:
    """A stream read afresh by every reader, recording the longest read."""

    def __init__(self, word):
        self.word, self.n, self.longest = word, word.n, 0

    def __iter__(self):
        taken = 0
        for k in self.word._source():
            taken += 1
            self.longest = max(self.longest, taken)
            yield k


def test_catalog_streams_match_a_fresh_read():
    specs = catalog()
    for name in STREAMS:
        word = specs[name].word
        expected = fresh(word)
        assert list(islice(word, LENGTH)) == expected, name
        # a second read walks the stored letters only
        assert list(islice(word, LENGTH)) == expected, name
        assert len(word._prefix.letters) == LENGTH


def test_parsed_sturmian_matches_a_fresh_read():
    for text, n in (("sturmian 7 1 2 3 11", 3), ("sturmian 2 3 1 -1 2", 4)):
        word = parse_infinite_word(text, n)
        assert list(islice(word, LENGTH)) == fresh(word), text


def test_image_stream_matches_a_fresh_transport():
    # the reference transports a fresh catalog ray, read through its source
    for name, letters in (("sturmian_4", (1, -3, 2, 2)), ("mixed_4", (-2, 3, 1)), ("sturmian_3", (1, -2) * 3)):
        spec = catalog()[name]
        b = BraidWord(spec.n, letters)
        conv = FROZEN_CONVENTION
        image = moved_spec(b, spec, conv).word
        source = CountingRay(catalog()[name].word)
        expected = list(islice(_image_letters(b, source, conv.artin_mirrored), LENGTH))
        assert list(islice(image, LENGTH)) == expected, name
        assert fresh(image) == expected, name


def test_a_finite_image_ends_every_read():
    # the moved finite ray is read lazily through a shared prefix whose
    # source ends; it stays finite: its scans take no depth cap
    spec, conv = catalog()["dehornoy_3"], FROZEN_CONVENTION
    h = BraidWord(3, (1, -2, 1))
    moved = moved_order(NTOrder(spec, conv, 1), h)
    word = moved.spec.word
    expected = moved_spec(h, spec, conv).word.letters
    assert len(expected) > 1
    early = iter(word)
    assert next(early) == expected[0]
    assert tuple(word) == tuple(word) == expected
    assert tuple(early) == expected[1:]
    assert word._prefix.letters == list(expected)
    assert moved.spec.type_tag == "finite"
    assert divergence_depth(moved, BraidWord(3)) == (len(expected), EQUAL)


def test_a_read_word_copies_and_pickles():
    # the prefix holds a generator, which neither copies nor pickles: a
    # copy starts a prefix of its own
    word = catalog()["sturmian_3"].word
    expected = list(islice(word, 50))
    for clone in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert clone == word
        assert list(islice(clone, 50)) == expected
        assert len(clone._prefix.letters) == 50
    assert len(word._prefix.letters) == 50


def test_interleaved_readers_share_one_read():
    calls = []

    def letters():
        calls.append(1)
        return catalog()["mixed_4"].word._source()

    word = Custom(4, letters, label="counted")
    expected = fresh(catalog()["mixed_4"].word, 600)
    first, second = iter(word), iter(word)
    got = {id(first): [], id(second): []}
    for step in itertools.count():
        for reader, take in ((first, step % 5), (second, (3 * step) % 7)):
            got[id(reader)].extend(islice(reader, min(take, 600 - len(got[id(reader)]))))
        if all(len(v) == 600 for v in got.values()):
            break
    third = iter(word)
    assert got[id(first)] == got[id(second)] == expected
    assert list(islice(third, 600)) == expected
    assert len(word._prefix.letters) == 600
    assert calls == [1]


@pytest.mark.parametrize(
    "letters, index, message",
    [
        ((1, 2, 1, 2, 3), 5, "custom stream 'bad' ran out of letters"),
        ((1, 2, 3, 9, 1), 3, "custom stream 'bad' has letter 9 out of range for F_3"),
        ((1, 2, -2, 1), 2, "custom stream 'bad' is not freely reduced"),
    ],
)
def test_errors_replay_at_the_same_index(letters, index, message):
    calls = []

    def supplier():
        calls.append(1)
        return iter(letters)

    word = Custom(3, supplier, label="bad")
    early = iter(word)
    assert list(islice(early, 2)) == list(letters[:2])
    for reader in (iter(word), early, iter(word)):
        read = []
        with pytest.raises(MalformedInputError) as info:
            read.extend(reader)
        assert str(info.value) == message
        assert len(read) + (2 if reader is early else 0) == index
    assert calls == [1]
    assert word._prefix.letters == list(letters[:index])


def traceback_length(exc):
    tb, length = exc.__traceback__, 0
    while tb is not None:
        tb, length = tb.tb_next, length + 1
    return length


def test_an_error_from_the_letters_function_replays():
    def letters():
        yield from (1, 2, 1)
        raise KeyError("supplier broke")

    word = Custom(3, letters, label="raising")
    lengths = []
    for _ in range(4):
        read = []
        with pytest.raises(KeyError, match="supplier broke") as info:
            read.extend(word)
        assert read == [1, 2, 1]
        lengths.append(traceback_length(info.value))
    # a replay does not keep the frames of the reads before it
    assert lengths[1] == lengths[2] == lengths[3]


def test_prefix_holds_the_longest_read_of_the_signs(rng):
    for name in STREAMS:
        spec = catalog()[name]
        conv = FROZEN_CONVENTION
        order = NTOrder(spec, conv)
        counting = CountingRay(catalog()[name].word)
        reference = NTOrder(GeodesicSpec(name, counting), conv)
        for _ in range(25):
            b = random_word(rng, spec.n, rng.randrange(1, 13))
            outcomes = []
            for oracle in (order, reference):
                try:
                    outcomes.append(oracle.sign(b))
                except (UndecidedComparisonError, BudgetExceededError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (name, b)
            assert len(spec.word._prefix.letters) == counting.longest, (name, b)
