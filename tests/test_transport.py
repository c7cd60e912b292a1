"""The lazy letter-by-letter braid transport against independent references.

The whole maps of ``artin_reference`` (``artin_map_of``/``apply_map``) check
its letters on small balls, the same transport holding back three letters a
stage (the looser bound it used before) checks them on random braids, handle
reduction checks its signs on long random words, and tracemalloc checks that
a sign holds only the stage buffers, not the image.
"""

import random
import tracemalloc
from itertools import islice

import pytest

from braidorders import (
    BallSpec,
    FreeWord,
    act_on_geodesic,
    catalog,
    catalog_order,
    dehornoy_sign,
    divergence_depth,
    nt,
    nt_sign,
    random_word,
)
from braidorders.nt import SINGLE_LETTER_BOUND
from braidorders.planar import EQUAL, GREATER, LESS, divergence

from artin_reference import apply_map, artin_map_of
from test_freewords import ray_prefix


def certified_image(b, letters, mirrored, length):
    """At least ``length`` letters of the image under b of a stream that
    starts with ``letters``, from the whole map: the image of a long enough
    prefix, less the letters the rest of the stream may still cancel.
    Bounded cancellation composes: C(first k letters) <= 3 C(first k-1) +
    SINGLE_LETTER_BOUND, as a letter's image has at most 3 letters."""
    margin = 0
    for _ in b.letters:
        margin = 3 * margin + SINGLE_LETTER_BOUND
    m = artin_map_of(b, mirrored)
    taken = 32
    while True:
        assert taken <= len(letters), "stream prefix too short for the reference"
        image = m.apply_letters(letters[:taken])
        if len(image) - margin >= length:
            return image[: len(image) - margin]
        taken *= 2


@pytest.mark.parametrize(
    "name, max_length",
    [("dehornoy_3", 5), ("dehornoy_4", 5), ("sturmian_3", 5), ("mixed_4", 5), ("b6_cx", 3)],
)
def test_lazy_transport_matches_whole_maps_on_balls(name, max_length):
    order = catalog_order(name)
    spec, conv, n = order.spec, order.convention, order.n
    mirrored = conv.artin_mirrored
    letters = ray_prefix(spec.word, 1 << 13)
    names = {LESS: "less", EQUAL: "equal", GREATER: "greater"}
    for b in BallSpec(n, max_length).words():
        report = divergence_depth(order, b)
        if isinstance(spec.word, FreeWord):
            whole = apply_map(artin_map_of(b, mirrored), spec.word)
            assert act_on_geodesic(b, spec, conv).word == whole, b
            depth, verdict = divergence(spec.word, whole, conv)
        else:
            # a stream's scan reads its image to the divergence depth only
            read = min(report.depth + 1, order.depth_cap)
            whole = certified_image(b, letters, mirrored, read)[:read]
            assert ray_prefix(act_on_geodesic(b, spec, conv).word, read) == whole, b
            depth, verdict = divergence(FreeWord(n, letters[:read]), FreeWord(n, whole), conv)
        expected = "undecided" if depth >= order.depth_cap else names[verdict]
        assert (report.depth, report.verdict) == (depth, expected), b


def test_one_letter_stages_match_three_letter_stages(monkeypatch):
    # stages that hold back one letter give the same image letters as the
    # earlier stages that held back three, on every catalog ray
    rng = random.Random(20240817)
    rays = [(spec.n, spec.word) for spec in catalog().values()]
    cases = []
    for _ in range(81):
        for n, ray in rays:
            cases.append((random_word(rng, n, rng.randrange(13)), ray, rng.random() < 0.5))
    images = [tuple(islice(nt._image_letters(*case), 300)) for case in cases]
    monkeypatch.setattr(nt, "SINGLE_LETTER_BOUND", 3)
    for case, image in zip(cases, images):
        assert tuple(islice(nt._image_letters(*case), 300)) == image, case


def test_long_words_match_handle_reduction():
    # lengths far past the balls, where whole images would run to millions
    # of letters; handle reduction is the independent oracle
    rng = random.Random(20240817)
    for n, lengths in ((3, (100, 250, 500, 1000)), (4, (100, 250, 500, 1000)), (6, (100, 200, 300))):
        order = catalog_order(f"dehornoy_{n}")
        for length in lengths:
            w = random_word(rng, n, length)
            assert nt_sign(order, w) == dehornoy_sign(w), (n, length)


@pytest.mark.parametrize("name, n, length", [("dehornoy_4", 4, 60), ("sturmian_3", 3, 40)])
def test_sign_memory_bounded(name, n, length):
    # the whole images of these words run to millions of letters; the lazy
    # transport holds a few letters per braid letter
    order = catalog_order(name)
    rng = random.Random(1)
    words = [random_word(rng, n, length) for _ in range(3)]
    nt_sign(order, words[0])  # letter tables built outside the measurement
    tracemalloc.start()
    try:
        for w in words:
            nt_sign(order, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
