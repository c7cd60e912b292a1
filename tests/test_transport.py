"""The lazy letter-by-letter braid transport against independent references.

The whole maps of ``artin_reference`` (``artin_map_of``/``apply_map``) check
its letters on small balls, the same transport holding back three letters a
stage (the looser bound it used before) checks them on random braids, as does
``cascading_image_letters``, the stage loop that cancels letter by letter,
kept here as the reference for the one comparison per junction and for the
letters a stage passes at once; brute force checks those "safe" flags of the
stage tables; handle reduction checks its signs on long random words, and
conjugation checks them on orders with no oracle, where the sign of h^-1 b h
(``product_sign``) is also the reference for the moved ray h(R) that
``ConjugatedOrder`` reads, on finite rays and streams; and tracemalloc checks
that a sign holds only the stage buffers, not the image.
"""

import random
import tracemalloc
from itertools import chain, islice, product

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    ConjugatedOrder,
    FreeWord,
    NTOrder,
    UndecidedComparisonError,
    catalog,
    catalog_order,
    conjugate,
    dehornoy_sign,
    divergence_depth,
    nt,
)
from braidorders.errors import BudgetExceededError, MalformedInputError
from braidorders.freewords import reduce_free
from braidorders.nt import SINGLE_LETTER_BOUND, _letter_tables, _stage_tables
from braidorders.planar import divergence

from artin_reference import apply_map, artin_map_of
from test_freewords import ray_prefix
from words import moved_spec, random_word


def cascading_image_letters(b, ray, mirrored, bound):
    """The transport as it was before a stage compared one letter per
    junction: each image letter is cancelled against the stage's last letter
    in turn, so cancellation may cascade; a stage holds back ``bound``
    letters."""
    table = _letter_tables(b.n, mirrored)
    tables = [table[letter] for letter in reversed(b.letters)]
    top = len(tables)
    patience = None if isinstance(ray, FreeWord) else (3 * top + 16) << 10
    stages = [[0] for _ in tables]
    full = bound + 1
    limits = [full] * top
    letters = iter(ray)
    flushing = -1
    idle = 0
    s = top - 1
    while True:
        while s >= 0 and len(stages[s]) <= limits[s]:
            s -= 1
        if s >= 0:
            del stages[s][0]
            letter = stages[s][0]
        elif flushing < 0 and (letter := next(letters, None)) is not None:
            idle += 1
            if patience is not None and idle > patience:
                raise BudgetExceededError(f"no image letter after {idle} stream letters", None)
        else:
            flushing += 1
            if flushing == top:
                return
            s = flushing
            limits[s] = 1
            continue
        s += 1
        while s < top:
            stage = stages[s]
            for m in tables[s][letter]:
                if stage[-1] == -m:
                    stage.pop()
                    if not stage:
                        raise MalformedInputError("the transported ray is not freely reduced")
                else:
                    stage.append(m)
            if len(stage) <= full:
                break
            del stage[0]
            letter = stage[0]
            s += 1
        else:
            idle = 0
            yield letter
            s = top - 1


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
    for b in BallSpec(n, max_length).words():
        report = divergence_depth(order, b)
        if isinstance(spec.word, FreeWord):
            whole = apply_map(artin_map_of(b, mirrored), spec.word)
            assert moved_spec(b, spec, conv).word == whole, b
            depth, verdict = divergence(spec.word, whole, conv, None)
        else:
            # a stream's scan reads its image to the divergence depth only
            read = min(report[0] + 1, order.depth_cap)
            whole = certified_image(b, letters, mirrored, read)[:read]
            assert ray_prefix(moved_spec(b, spec, conv).word, read) == whole, b
            depth, verdict = divergence(FreeWord(n, letters[:read]), FreeWord(n, whole), conv, None)
            if depth >= order.depth_cap:
                verdict = None  # the stream's scan stops at the cap
        assert report == (depth, verdict), b


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


def transport_outcome(image):
    """The first 300 letters of an image, or the error that reading them
    raised."""
    try:
        return tuple(islice(image, 300))
    except (MalformedInputError, BudgetExceededError) as exc:
        return (type(exc), str(exc))


def junction_cases(specs):
    """Random braids of length 0-40, 20 a ray, each in both conventions."""
    rng = random.Random(20240819)
    for spec in specs:
        for _ in range(20):
            b = random_word(rng, spec.n, rng.randrange(41))
            for mirrored in (False, True):
                yield spec, b, mirrored


def matches_cascading_stages(spec, b, mirrored, bound):
    """The transport's outcome and the cascading loop's, when they agree."""
    outcome = transport_outcome(nt._image_letters(b, spec.word, mirrored))
    if outcome == transport_outcome(cascading_image_letters(b, spec.word, mirrored, bound)):
        return outcome
    return None


@pytest.mark.parametrize("bound", [1, 3])
def test_one_comparison_per_junction_matches_cascading_stages(monkeypatch, bound):
    # random braids on every catalog ray, both conventions: the same image
    # letters, or the same error, as the cascading loop
    monkeypatch.setattr(nt, "SINGLE_LETTER_BOUND", bound)
    compared = 0
    for spec, b, mirrored in junction_cases(catalog().values()):
        outcome = matches_cascading_stages(spec, b, mirrored, bound)
        assert outcome is not None, (spec.name, b, mirrored)
        compared += len(outcome)
    assert compared > 90_000


def test_a_wrongly_safe_entry_breaks_the_cascading_comparison(monkeypatch):
    # each unsafe entry of the B_3 stage tables, flagged safe on its own,
    # makes a stage pass a letter that a later image cancels: the transport
    # then differs from the cascading loop on some catalog ray
    real = _stage_tables
    specs = [spec for spec in catalog().values() if spec.n == 3]
    mutants = 0
    for mirrored in (False, True):
        cases = [(spec, b) for spec, b, m in junction_cases(specs) if m == mirrored]
        for letter, entries in real(3, mirrored).items():
            for k, entry in entries.items():
                if entry[3]:
                    continue
                wrong = {j: dict(row) for j, row in real(3, mirrored).items()}
                wrong[letter][k] = entry[:3] + (True,)
                monkeypatch.setattr(
                    nt,
                    "_stage_tables",
                    lambda n, m, wrong=wrong, mirrored=mirrored: wrong if (n, m) == (3, mirrored) else real(n, m),
                )
                assert any(
                    matches_cascading_stages(spec, b, mirrored, SINGLE_LETTER_BOUND) is None
                    for spec, b in cases
                ), (mirrored, letter, k)
                mutants += 1
    assert mutants == 24


@pytest.mark.parametrize("n, safe", [(3, 12), (4, 30), (5, 56), (6, 90)])
def test_stage_table_safe_flags_match_brute_force(n, safe):
    # an entry is safe iff the image of no letter but its inverse cancels
    # into the end of its image
    for mirrored in (False, True):
        count = entries_seen = 0
        for letter, images in _letter_tables(n, mirrored).items():
            entries = _stage_tables(n, mirrored)[letter]
            for k, img in images.items():
                flag = all(
                    reduce_free(img + other)[: len(img)] == img
                    for j, other in images.items()
                    if j != -k
                )
                assert entries[k] == (-img[0], img, img[1:], flag), (letter, k)
                count += flag
                entries_seen += 1
        assert (count, entries_seen) == (safe, 4 * n * (n - 1)), mirrored


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_safe_receipt_leaves_a_final_last_letter(n):
    # the argument above SINGLE_LETTER_BOUND by brute force: after a stage
    # receives a letter flagged safe, no continuation of its reduced input
    # cancels into the reduced image so far, not even where a one-letter
    # image has just cancelled the letter held before it.  The last letter
    # of the image depends on the last two input letters at most, and the
    # first letter of the continuation's image on its first two.
    words = [(k,) for k in range(-n, n + 1) if k]
    words += [u + (k,) for u in words for (k,) in words if k != -u[-1]]
    one_letter_cancels = 0
    for mirrored in (False, True):
        for letter, images in _letter_tables(n, mirrored).items():
            entries = _stage_tables(n, mirrored)[letter]

            def image(word):
                return reduce_free(chain.from_iterable(images[k] for k in word))

            for u in words:
                if not entries[u[-1]][3]:
                    continue
                head = image(u)
                one_letter_cancels += len(images[u[-1]]) == 1 and len(head) < len(image(u[:-1]))
                for v in words:
                    if v[0] != -u[-1]:
                        assert image(u + v)[: len(head)] == head, (mirrored, letter, u, v)
    assert one_letter_cancels > 0


def test_long_words_match_handle_reduction():
    # lengths far past the balls, where whole images would run to millions
    # of letters; handle reduction is the independent oracle
    rng = random.Random(20240817)
    for n, lengths in ((3, (100, 250, 500, 1000)), (4, (100, 250, 500, 1000)), (6, (100, 200, 300))):
        order = catalog_order(f"dehornoy_{n}")
        for length in lengths:
            w = random_word(rng, n, length)
            assert order.sign(w) == dehornoy_sign(w), (n, length)


def product_sign(base, b, h):
    """The base's sign of h^-1 b h: how a ray order's conjugate signed before
    it moved the ray, kept here as the reference."""
    try:
        return base.sign(conjugate(b, h))
    except UndecidedComparisonError:
        return None


@pytest.mark.parametrize("name", ["b4_b", "b4_c", "b6_cx", "dehornoy_5"])
def test_conjugating_the_braid_moves_the_ray(name):
    # orders with no oracle at length, checked by an exact identity of
    # finite rays: h^-1 b h is positive for the ray iff b is positive for
    # the ray moved by h, drained whole or read lazily by ConjugatedOrder;
    # the two sides transport different braids along different rays.  The
    # conjugators are random, then (sigma_1 sigma_2^-1)^k, pseudo-Anosov on
    # three strands, which stretch the ray by about 2.6^k
    base = catalog_order(name)
    conv = base.convention
    rng = random.Random(20240820)
    cases = [
        (random_word(rng, base.n, length), random_word(rng, base.n, h_length))
        for length, h_length, _ in product((64, 128, 256), range(1, 7), range(6))
    ]
    cases += [
        (random_word(rng, base.n, length), BraidWord(base.n, (1, -2) * k))
        for k, length, _ in product(range(1, 7), (8, 32, 128), range(4))
    ]
    for b, h in cases:
        moved = NTOrder(moved_spec(h, base.spec, conv), conv)
        assert product_sign(base, b, h) == moved.sign(b) == ConjugatedOrder(base, h).sign(b), (b, h)


@pytest.mark.parametrize(
    "name, length, both_undecided",
    [("sturmian_3", 6, 72), ("sturmian_4", 5, 48), ("mixed_4", 4, 48), ("sturmian_6", 3, 0)],
)
def test_stream_conjugates_move_the_ray(name, length, both_undecided):
    # on a stream the depth cap binds different scans, b(h(R)) against h(R)
    # and (h^-1 b h)(R) against R, yet on these balls the two sides decide
    # the same words; the undecided ones are the trivial words (12 a
    # conjugate in B3 L6, 8 in B4 L5 and in B4 L4, none in B6 L3)
    base = catalog_order(name)
    undecided = 0
    for j in range(1, 7):
        h = BraidWord(base.n, (-1,) * j + (2,))
        conj = ConjugatedOrder(base, h)
        for b in BallSpec(base.n, length).words():
            try:
                moved = conj.sign(b)
            except UndecidedComparisonError:
                moved = None
            assert moved == product_sign(base, b, h), (j, b)
            undecided += moved is None
    assert undecided == both_undecided


def test_pseudo_anosov_conjugate_reads_only_what_its_signs_need():
    # the whole image of the dehornoy_3 ray under (sigma_1 sigma_2^-1)^30
    # has about 2.6^30 letters per ray letter; three signs read a few
    base = catalog_order("dehornoy_3")
    h = BraidWord(3, (1, -2) * 30)
    words = [BraidWord(3, (k,)) for k in (1, 2, -1)]
    expected = [product_sign(base, b, h) for b in words]  # letter tables built outside
    tracemalloc.start()
    try:
        conj = ConjugatedOrder(base, h)
        signs = [conj.sign(b) for b in words]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert signs == expected
    assert peak < 1 << 16
    assert len(conj._moved.spec.word._prefix.letters) < 10


@pytest.mark.parametrize("name, n, length", [("dehornoy_4", 4, 60), ("sturmian_3", 3, 40)])
def test_sign_memory_bounded(name, n, length):
    # the whole images of these words run to millions of letters; the lazy
    # transport holds a few letters per braid letter
    order = catalog_order(name)
    rng = random.Random(1)
    words = [random_word(rng, n, length) for _ in range(3)]
    order.sign(words[0])  # letter tables built outside the measurement
    tracemalloc.start()
    try:
        for w in words:
            order.sign(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
