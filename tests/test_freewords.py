import itertools
import math
import random
from dataclasses import replace
from itertools import islice

import pytest

from braidorders import (
    BraidWord,
    Custom,
    EventuallyPeriodic,
    FreeWord,
    GermConvention,
    MalformedInputError,
    NTOrder,
    QuadraticIrrational,
    StreamGrowthError,
    Sturmian,
    catalog,
    invert,
    multiply,
    parse_free_word,
    parse_infinite_word,
)
from braidorders.braids import inverse_letters
from braidorders.freewords import format_infinite_word
from braidorders.nt import SINGLE_LETTER_BOUND, GeodesicSpec, _letter_tables
from braidorders.planar import divergence

from artin_reference import ArtinMap, apply_map, artin_map_of, compose, substitute
from words import moved_spec, random_word


def approximate(qi):
    """(p + sqrt d) / q as a float, for the frequency and interval checks."""
    return (qi.p + qi.d ** 0.5) / qi.q


def ray_prefix(word, length):
    """The first ``length`` letters of a ray, or the whole word if shorter."""
    return tuple(islice(word, length))


def random_free_word(rng, n, length):
    letters = []
    for _ in range(length):
        choices = [k for i in range(1, n + 1) for k in (i, -i) if not letters or k != -letters[-1]]
        letters.append(rng.choice(choices))
    return FreeWord(n, tuple(letters))


def test_ranks_are_integers():
    # a float or bool rank used to build, and a Custom stream raised
    # TypeError when read
    slope = QuadraticIrrational(7, 3, 11)
    for n in (2.5, 3.0, True, "3"):
        for build in (
            lambda: FreeWord(n, (1, 2)),
            lambda: Sturmian(n, slope, 1, 2),
            lambda: Custom(n, lambda: iter((1, 2)), label="c"),
        ):
            with pytest.raises(MalformedInputError) as info:
                build()
            assert str(info.value) == f"rank must be an integer, got {n!r}"
    for build in (lambda: FreeWord(0, ()), lambda: Custom(0, lambda: iter(()), "c")):
        with pytest.raises(MalformedInputError, match="rank must be >= 1, got 0"):
            build()


def test_stream_fields_are_integers():
    # a float coefficient used to build and give float floors, a float d
    # raised TypeError, and a bool letter was yielded as a letter
    for d, p, q, bad in (
        (7, 3.0, 11, "p must be an integer, got 3.0"),
        (7.0, 3, 11, "d must be an integer, got 7.0"),
        (7, 3, True, "q must be an integer, got True"),
    ):
        with pytest.raises(MalformedInputError) as info:
            QuadraticIrrational(d, p, q)
        assert str(info.value) == bad
    slope = QuadraticIrrational(7, 3, 11)
    for a, b in ((True, 2), (1, 2.0)):
        with pytest.raises(MalformedInputError, match="Sturmian letter must be an integer"):
            Sturmian(3, slope, a, b)
    with pytest.raises(MalformedInputError, match="Sturmian slope must be a QuadraticIrrational"):
        Sturmian(3, 0.5, 1, 2)


def test_free_word_reduction_and_inverse():
    assert FreeWord(3, (1, -1, 2)).letters == (2,)
    w = FreeWord(3, (1, -2, 3))
    assert inverse_letters(w.letters) == (-3, 2, -1)
    assert FreeWord(3, w.letters + inverse_letters(w.letters)).letters == ()
    with pytest.raises(MalformedInputError):
        FreeWord(3, (4,))
    for letters, bad in (((True, 2), True), ((2, False), False)):
        with pytest.raises(MalformedInputError) as info:
            FreeWord(3, letters)
        assert str(info.value) == f"letter {bad!r} out of range for F_3"


def test_quadratic_irrational_exact_floor():
    qi = QuadraticIrrational(7, 3, 11)
    value = (3 + math.sqrt(7)) / 11
    for k in range(500):
        assert qi.floor_times(k) == math.floor(k * value)
    with pytest.raises(MalformedInputError):
        QuadraticIrrational(9, 1, 2)
    for d in (4, -3):
        with pytest.raises(MalformedInputError) as info:
            QuadraticIrrational(d, 1, 2)
        assert str(info.value) == f"d must be a positive non-square, got {d}"
    # 2.5 used to raise TypeError, and True was read as k = 1
    for k, message in (
        (2.5, "k must be an integer, got 2.5"),
        (True, "k must be an integer, got True"),
        (-1, "k must be >= 0, got -1"),
    ):
        with pytest.raises(MalformedInputError) as info:
            qi.floor_times(k)
        assert str(info.value) == message


def test_sturmian_prefix_coherent_and_balanced():
    st = Sturmian(3, QuadraticIrrational(7, 3, 11), 1, 2)
    p50 = ray_prefix(st, 50)
    p200 = ray_prefix(st, 200)
    assert p200[:50] == p50
    assert set(p200) == {1, 2}
    # letter frequencies track the slope
    share = p200.count(2) / 200
    assert abs(share - approximate(st.slope)) < 0.05


def test_eventually_periodic_prefix_and_validation():
    ep = EventuallyPeriodic(FreeWord(3, (1,)), FreeWord(3, (2, 1)))
    assert ray_prefix(ep, 5) == (1, 2, 1, 2, 1)
    with pytest.raises(MalformedInputError):
        EventuallyPeriodic(FreeWord(3, (1,)), FreeWord(3, ()))
    with pytest.raises(MalformedInputError):
        EventuallyPeriodic(FreeWord(3, (1,)), FreeWord(3, (-1, 2)))


def test_infinite_word_text_round_trip():
    ep = parse_infinite_word("1 | 2 1", 3)
    assert isinstance(ep, EventuallyPeriodic)
    assert format_infinite_word(ep) == "1 | 2 1"
    st = parse_infinite_word("sturmian 7 1 2 3 11", 3)
    assert isinstance(st, Sturmian)
    assert format_infinite_word(st) == "sturmian 7 1 2 3 11"
    assert parse_free_word("1 -2", 3).letters == (1, -2)


def test_malformed_sturmian_text_names_the_form():
    for text in ("sturmian 7 1 x 3 11", "sturmian 7 1 2 3", "sturmian 7 1 2 3 11 4"):
        with pytest.raises(MalformedInputError) as info:
            parse_infinite_word(text, 3)
        assert str(info.value) == f"expected 'sturmian d a b p q' in integers, got {text!r}"


def test_sturmian_form_needs_the_exact_keyword():
    for text in ("sturmianx 7 1 2 3 11", "sturmian7 1 2 3 11", "Sturmian 7 1 2 3 11"):
        with pytest.raises(MalformedInputError) as info:
            parse_infinite_word(text, 3)
        assert str(info.value) == f"cannot parse infinite word {text!r}"


def test_sturmian_slope_must_lie_in_the_unit_interval():
    # (p + sqrt d)/q for d = 7: sqrt 7 ~ 2.6458
    for p, q in ((3, 2), (-3, 2), (-3, 1), (3, 5), (-3, 11), (0, 2)):
        with pytest.raises(MalformedInputError) as info:
            Sturmian(3, QuadraticIrrational(7, p, q), 1, 2)
        assert str(info.value) == f"Sturmian slope ({p} + sqrt(7))/{q} is not in (0, 1)"
    for p, q in ((3, 11), (-2, 1), (0, 3), (3, 6), (-1, 2)):
        slope = QuadraticIrrational(7, p, q)
        assert 0 < approximate(slope) < 1
        assert set(ray_prefix(Sturmian(3, slope, 1, 2), 200)) == {1, 2}


def test_artin_identity_and_inverse_composition():
    assert artin_map_of(BraidWord(3)) == ArtinMap.identity(3)
    assert artin_map_of(BraidWord(3, (1, -1))) == ArtinMap.identity(3)
    m = artin_map_of(BraidWord(3, (1,)))
    mi = artin_map_of(BraidWord(3, (-1,)))
    assert compose(m, mi) == ArtinMap.identity(3)
    assert apply_map(m, FreeWord(3, (1,))).letters == (1, 2, -1)


def test_artin_braid_relations():
    for n in range(3, 7):
        for i in range(1, n - 1):
            lhs = artin_map_of(BraidWord(n, (i, i + 1, i)))
            rhs = artin_map_of(BraidWord(n, (i + 1, i, i + 1)))
            assert lhs == rhs
        for i in range(1, n):
            for j in range(i + 2, n):
                assert artin_map_of(BraidWord(n, (i, j))) == artin_map_of(BraidWord(n, (j, i)))


def test_artin_left_action_law(rng):
    for _ in range(200):
        a = random_word(rng, 4, rng.randrange(0, 6))
        b = random_word(rng, 4, rng.randrange(0, 6))
        assert artin_map_of(multiply(a, b)) == compose(artin_map_of(a), artin_map_of(b))


def test_apply_map_morphism_and_inverse(rng):
    for _ in range(100):
        bw = random_word(rng, 4, rng.randrange(0, 7))
        u = random_free_word(rng, 4, rng.randrange(0, 9))
        v = random_free_word(rng, 4, rng.randrange(0, 9))
        m = artin_map_of(bw)
        product = FreeWord(4, apply_map(m, u).letters + apply_map(m, v).letters)
        assert apply_map(m, FreeWord(4, u.letters + v.letters)) == product
        assert apply_map(artin_map_of(invert(bw)), apply_map(m, u)) == u


def test_single_letter_cancellation_bound_is_exact():
    # the soundness base of the lazy transport: where the reduced images of
    # u and v meet under one braid letter, for a reduced product u v, the
    # worst cancellation is exactly SINGLE_LETTER_BOUND, checked on every
    # reduced u, v of length <= 3 for every signed letter of B_3 and for
    # sigma_2^{+-1} of B_4, which fixes a generator on each side
    def all_reduced(n, L):
        alphabet = [k for i in range(1, n + 1) for k in (i, -i)]
        frontier = [()]
        out = []
        for _ in range(L):
            frontier = [p + (k,) for p in frontier for k in alphabet if not p or k != -p[-1]]
            out.extend(frontier)
        return out

    cases = [(3, s) for s in (1, -1, 2, -2)] + [(4, 2), (4, -2)]
    for n, s in cases:
        words = all_reduced(n, 3)
        for mirrored in (False, True):
            table = _letter_tables(n, mirrored)[s]
            images = [substitute(w, table) for w in words]
            worst = 0
            for u, image_u in zip(words, images):
                tail = [-k for k in reversed(image_u)]
                for v, image_v in zip(words, images):
                    if u[-1] == -v[0]:
                        continue
                    cancelled = 0
                    for a, b in zip(tail, image_v):
                        if a != b:
                            break
                        cancelled += 1
                    worst = max(worst, cancelled)
            assert worst == SINGLE_LETTER_BOUND == 1, (n, s, mirrored)


def test_braid_image_matches_artin_map(rng):
    # the right-to-left transport against the left-to-right reference maps
    for _ in range(300):
        n = rng.randrange(3, 7)
        b = random_word(rng, n, rng.randrange(0, 8))
        u = random_free_word(rng, n, rng.randrange(0, 10))
        for mirrored in (False, True):
            expected = apply_map(artin_map_of(b, mirrored), u).letters
            image = moved_spec(b, GeodesicSpec("u", u), GermConvention(False, mirrored, False)).word
            assert image.letters == expected


def test_stream_prefix_image_coherence(rng):
    specs = catalog()
    streams = [
        EventuallyPeriodic(FreeWord(3, ()), FreeWord(3, (1, 2))),
        Sturmian(3, QuadraticIrrational(7, 3, 11), 1, 2),
        specs["sturmian_4"].word,
        specs["mixed_4"].word,
        specs["sturmian_6"].word,
    ]
    for stream in streams:
        n = stream.n
        spec = GeodesicSpec("stream", stream)
        long_input = FreeWord(n, ray_prefix(stream, 600))
        for _ in range(30):
            b = random_word(rng, n, rng.randrange(0, 6))
            for mirrored in (False, True):
                conv = GermConvention(False, mirrored, False)
                reference = apply_map(artin_map_of(b, mirrored), long_input).letters
                image = moved_spec(b, spec, conv).word
                prefixes = {length: ray_prefix(image, length) for length in (25, 10, 80, 40)}
                for length, prefix in prefixes.items():
                    assert len(prefix) == length
                    assert prefix == prefixes[80][:length] == reference[:length]
                # the stream made of the input prefix alone: every letter the
                # lazy transport passes on before that prefix runs out is a
                # letter of the image of any reduced word extending it
                cut = Custom(n, lambda: iter(long_input.letters), label="prefix")
                certified = []
                with pytest.raises(MalformedInputError, match="ran out"):
                    certified.extend(moved_spec(b, replace(spec, word=cut), conv).word)
                assert tuple(certified) == reference[: len(certified)]
                assert len(certified) >= 80
    # the identity braid on (x1 x2)^omega
    plain = GermConvention(False, False, False)
    image = moved_spec(BraidWord(3), GeodesicSpec("ep", streams[0]), plain).word
    assert ray_prefix(image, 6) == (1, 2, 1, 2, 1, 2)
    assert ray_prefix(image, 0) == ()


def test_custom_supplier_checked():
    bad = Custom(3, lambda: iter((1,) * 5), label="bad")
    with pytest.raises(MalformedInputError):
        ray_prefix(bad, 10)
    # letters outside F_3, read by the scan or by the transport, where an
    # unchecked -4 would index past the germ places and read a wrong verdict;
    # 1.0 equals the letter 1 but is not an int
    conv = GermConvention(False, False, False)
    for letters in ((4, 1), (-4, 1), (0, 1), (1, 2, 2.5), (1.0, 2)):
        far = Custom(3, lambda letters=letters: itertools.cycle(letters), label="far")
        near = Custom(3, lambda letters=letters: itertools.cycle(letters[:-1] + (3,)), label="near")
        with pytest.raises(MalformedInputError, match="out of range for F_3"):
            divergence(far, near, conv, 64)
        with pytest.raises(MalformedInputError, match="out of range for F_3"):
            NTOrder(GeodesicSpec("far", far), conv).sign(BraidWord(3, (1,)))


def test_custom_rejects_bool_letters():
    # True equals the letter 1 and hashes like it, so the range check alone
    # let it through
    for letters, bad in (((True, 2), True), ((1, False), False), ((-2, True), True)):
        stream = Custom(3, lambda letters=letters: itertools.cycle(letters), label="bools")
        with pytest.raises(MalformedInputError, match=f"has letter {bad} out of range for F_3"):
            ray_prefix(stream, 4)
    assert ray_prefix(Custom(3, lambda: itertools.cycle((1, 2)), "ints"), 4) == (1, 2, 1, 2)


def test_growth_failure_on_degenerate_stream():
    # (x1 x1^-1)^omega is not reduced: every image of it collapses, so it
    # must be refused as it is read, not signed or left to hang
    stream = Custom(3, lambda: itertools.cycle((1, -1)), label="collapsing")
    order = NTOrder(GeodesicSpec("collapsing", stream), GermConvention(False, False, False))
    with pytest.raises(MalformedInputError, match="not freely reduced"):
        order.sign(BraidWord(3, (1,)))


def test_growth_budget_on_slow_reduced_stream():
    # a reduced stream can still exhaust the stall budget: the pull-back of
    # (x1 x2)^omega by b = (sigma_1 sigma_2^-1)^12 maps back to it under b,
    # but each image letter needs about 2.6^12 stream letters
    b = BraidWord(3, (1, -2) * 12)
    periodic = EventuallyPeriodic(FreeWord(3, ()), FreeWord(3, (1, 2)))
    base = GeodesicSpec("periodic", periodic)
    pulled = moved_spec(invert(b), base, GermConvention(False, False, False))
    with pytest.raises(StreamGrowthError, match="after 90113 stream letters"):
        NTOrder(pulled, GermConvention(False, False, False)).sign(b)
    # the stream's prefix holds its longest read: one letter that passed an
    # image letter on, then the 90113 that did not
    assert len(pulled.word._prefix.letters) == 90114


def test_non_reduced_stream_rejected():
    # x1^8 x1^-8 (x1 x2)^omega: sigma_2 fixes x1, so a transport that did not
    # check its input would pass on x1 letters that the x1^-1 letters would
    # have to cancel
    stream = Custom(
        3, lambda: itertools.chain((1,) * 8, (-1,) * 8, itertools.cycle((1, 2))), label="unreduced"
    )
    order = NTOrder(GeodesicSpec("unreduced", stream), GermConvention(False, False, False))
    with pytest.raises(MalformedInputError, match="not freely reduced"):
        order.sign(BraidWord(3, (2,)))
