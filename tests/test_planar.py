import importlib
import itertools

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    BraidWord,
    EventuallyPeriodic,
    FreeWord,
    GermConvention,
    NTOrder,
    QuadraticIrrational,
    Sturmian,
    calibrate_conventions,
    catalog_order,
    dehornoy_sign,
    divergence_depth,
)
from braidorders.catalog import dehornoy_word
from braidorders.planar import DEFAULT_DEPTH_CAP, _places, divergence

from artin_reference import apply_map, artin_map_of
from test_freewords import random_free_word, ray_prefix
from test_scan_reference import ref_germ_cycle
from words import random_word


def planar_verdict(u, v, conv, depth_cap=DEFAULT_DEPTH_CAP):
    """The angle verdict of the divergence scan: -1, 0, 1, or None past the cap."""
    return divergence(u, v, conv, depth_cap)[1]


def test_germ_cycle_contents():
    # places indexed by germ + 3: x3^-1 x2^-1 x1^-1 T x1 x2 x3
    assert _places(False, 3) == (2, 4, 6, 0, 5, 3, 1)  # cycle T x3 x3^-1 x2 x2^-1 x1 x1^-1
    assert _places(True, 3) == (6, 4, 2, 0, 1, 3, 5)  # cycle T x1 x1^-1 x2 x2^-1 x3 x3^-1


@pytest.mark.parametrize("reversed_fan", [False, True])
def test_places_match_the_germ_cycle(reversed_fan):
    # the places list the fan itself; the reference builds the cycle and
    # indexes it, as a convention's cycle method did
    for n in range(2, 9):
        cycle = ref_germ_cycle(GermConvention(reversed_fan, False, False), n)
        assert sorted(cycle) == list(range(-n, n + 1))
        assert _places(reversed_fan, n) == tuple(cycle.index(g) for g in range(-n, n + 1)), n


def test_default_convention_basepoint_cut():
    # with the default (unreversed, unflipped) table the x_n-starting word
    # leaves at a smaller angle than the x_1-starting word
    for n in (3, 5):
        conv = GermConvention(False, False, False)
        u = FreeWord(n, (n, 1))
        v = FreeWord(n, (1, n))
        assert planar_verdict(u, v, conv) == -1
        assert planar_verdict(v, u, conv) == 1


def test_equal_and_prefix_words(conv):
    u = FreeWord(3, (1, -2))
    assert planar_verdict(u, u, conv) == 0
    v = FreeWord(3, (1, -2, 3))
    assert planar_verdict(u, v, conv) != 0
    assert planar_verdict(u, v, conv) == -planar_verdict(v, u, conv)


def test_comparator_exhaustive_total_order_small_words(conv):
    # every pair of distinct words up to length 2 in F_3: total, antisymmetric,
    # and transitive as a whole (sorting by the comparator is consistent)
    import functools
    import itertools

    words = [FreeWord(3, ())]
    alphabet = [k for i in (1, 2, 3) for k in (i, -i)]
    for a in alphabet:
        words.append(FreeWord(3, (a,)))
        for b in alphabet:
            if b != -a:
                words.append(FreeWord(3, (a, b)))
    for u, v in itertools.combinations(words, 2):
        assert planar_verdict(u, v, conv) == -planar_verdict(v, u, conv) != 0
    ordered = sorted(words, key=functools.cmp_to_key(lambda u, v: planar_verdict(u, v, conv)))
    for u, v in zip(ordered, ordered[1:]):
        assert planar_verdict(u, v, conv) == -1
    for u, w in zip(ordered, ordered[2:]):
        assert planar_verdict(u, w, conv) == -1


def test_comparator_total_antisymmetric_transitive(rng, conv):
    for _ in range(500):
        words = [random_free_word(rng, 3, rng.randrange(0, 7)) for _ in range(3)]
        u, v, w = words
        if u != v:
            assert planar_verdict(u, v, conv) != 0
            assert planar_verdict(u, v, conv) == -planar_verdict(v, u, conv)
        if u != v and v != w and u != w:
            if planar_verdict(u, v, conv) < 0 and planar_verdict(v, w, conv) < 0:
                assert planar_verdict(u, w, conv) < 0


def test_order_equivariance_under_braid_action(rng, conv):
    # the action fixes the boundary, so it preserves angle comparisons exactly
    for _ in range(1000):
        beta = random_word(rng, 4, rng.randrange(0, 6))
        u = random_free_word(rng, 4, rng.randrange(0, 8))
        v = random_free_word(rng, 4, rng.randrange(0, 8))
        if u == v:
            continue
        m = artin_map_of(beta, conv.artin_mirrored)
        before = planar_verdict(u, v, conv)
        after = planar_verdict(apply_map(m, u), apply_map(m, v), conv)
        assert before == after


def test_finite_words_decide_past_the_cap(conv):
    # finite words always separate, so their scan may go uncapped; a cap
    # stops any two rays, and a finite ray order scans with none, for its
    # signs and its divergence reports alike
    base = (1, 2) * 300
    u = FreeWord(3, base + (1,))
    v = FreeWord(3, base + (-2,))
    assert divergence(u, v, conv, None)[0] > 64
    assert divergence(u, v, conv, 64) == (64, None)
    assert planar_verdict(u, v, conv, None) == -planar_verdict(v, u, conv, None) != 0
    assert planar_verdict(FreeWord(3, base), u, conv, None) != 0
    order = NTOrder(catalog_order("dehornoy_4").spec, depth_cap=1)
    top = BraidWord(4, (3,))
    depth, verdict = divergence_depth(order, top)
    assert (depth, verdict) == divergence_depth(catalog_order("dehornoy_4"), top)
    assert depth > 1 and verdict is not None
    assert order.sign(top) == dehornoy_sign(top) == 1


def test_streams_agreeing_beyond_cap_undecided(conv):
    ep = EventuallyPeriodic(FreeWord(3, ()), FreeWord(3, (1, 2)))
    assert divergence(ep, ep, conv, depth_cap=64) == (64, None)
    st = Sturmian(3, QuadraticIrrational(7, 3, 11), 1, 2)
    assert divergence(st, st, conv, depth_cap=100) == (100, None)


def test_stream_vs_finite_decided(conv):
    st = Sturmian(3, QuadraticIrrational(7, 3, 11), 1, 2)
    head = FreeWord(3, ray_prefix(st, 5))
    assert planar_verdict(head, st, conv) != 0


def test_common_prefix_length(conv):
    u = FreeWord(3, (1, 2, 1))
    v = FreeWord(3, (1, 2, -1))
    depth, verdict = divergence(u, v, conv, None)
    assert depth == 2 and verdict in (-1, 1)
    ep = EventuallyPeriodic(FreeWord(3, ()), FreeWord(3, (1, 2)))
    assert divergence(ep, ep, conv, depth_cap=32) == (32, None)
    assert divergence(u, u, conv, None) == (3, 0)


@pytest.mark.parametrize("n, max_length", [(3, 4), (4, 3), (5, 3), (6, 2)])
def test_calibration_finds_one_convention_at_every_rank(n, max_length):
    result = calibrate_conventions(n, max_length)
    assert result.convention == FROZEN_CONVENTION
    assert result.word == dehornoy_word(n)
    # two equivalent twins (mirrored rules with flipped verdicts) for each
    # of two candidate words
    assert len(result.matches) == 4


def test_calibration_rejects_broken_oracle(monkeypatch):
    # a sign that no ray order reproduces: every word positive
    monkeypatch.setattr(importlib.import_module("braidorders.orders"), "dehornoy_sign", lambda w: 1)
    with pytest.raises(AssertionError, match="no convention reproduces the oracle"):
        calibrate_conventions(3, 2)
