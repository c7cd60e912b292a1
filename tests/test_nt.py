import dataclasses
import itertools
import random
import tracemalloc
from bisect import bisect_right

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    BallSpec,
    BraidWord,
    BudgetExceededError,
    ConjugatedOrder,
    DehornoyOrder,
    FreeWord,
    MalformedInputError,
    SoulValidationError,
    UndecidedComparisonError,
    catalog_order,
    conrad_witness_search,
    convex_chain_report,
    dehornoy_sign,
    divergence_depth,
    format_geodesic_spec,
    in_convex_subgroup,
    invert,
    is_conrad_witness,
    multiply,
    order_cmp,
    parse_geodesic_spec,
    soul_of,
    totality_probe,
)
from braidorders import nt
from braidorders.nt import ChainLevel, ChainReport, GeodesicSpec, NTOrder, letter_depths, moved_order
from braidorders.planar import EQUAL, GREATER, LESS, divergence

from words import moved_spec, random_word


def test_catalog_contents_and_validation(specs):
    names = {
        "dehornoy_3", "dehornoy_4", "dehornoy_5", "dehornoy_6",
        "b4_a", "b4_b", "b4_c", "b6_cx", "mixed_4",
        "sturmian_3", "sturmian_4", "sturmian_5", "sturmian_6",
    }
    assert names <= set(specs)
    for spec in specs.values():
        spec.validate()
    assert specs["dehornoy_3"].separating_depths == (1, 2)
    assert specs["b6_cx"].soul_generators == (1, 3, 5)
    assert specs["sturmian_4"].separating_depths == ()
    assert specs["mixed_4"].type_tag == "infinite"


def test_spec_invariant_enforcement():
    with pytest.raises(MalformedInputError):
        GeodesicSpec("bad", FreeWord(4, (1,)), (1, 1))
    with pytest.raises(MalformedInputError):
        GeodesicSpec("bad", FreeWord(4, (1,)), (1,), (1, 2))
    spec = GeodesicSpec("bad", FreeWord(4, (-1, -2)), (1, 2), (3,))
    with pytest.raises(MalformedInputError):
        spec.validate()  # finite type needs n-1 depths


def test_type_follows_the_ray_and_the_depths(specs):
    stream = specs["sturmian_3"].word
    assert GeodesicSpec("f", FreeWord(3, (-1, -2)), (1, 2), (2,)).type_tag == "finite"
    assert GeodesicSpec("f", FreeWord(3, (-1, -2))).type_tag == "finite"
    assert GeodesicSpec("i", stream, (1,)).type_tag == "infinite"
    assert GeodesicSpec("full", stream).type_tag == "full_infinite"
    # a stream with a soul is infinite type, however it is built, and fails
    # catalog validation
    with_soul = GeodesicSpec("s", stream, (1,), (1,))
    assert with_soul.type_tag == "infinite"
    with pytest.raises(MalformedInputError, match="infinite type has a trivial soul"):
        with_soul.validate()


def test_spec_fields_hold_no_type():
    # the type is read off the ray and the depths, so it cannot be stored
    # apart from them
    names = [field.name for field in dataclasses.fields(GeodesicSpec)]
    assert names == ["name", "word", "separating_depths", "soul_generators"]


def test_soul_is_kept_in_axis_order():
    word = FreeWord(6, (3, 4, 5, 6, 5, 6, -1, -3, -5))
    for soul in ([5, 1, 3], (3, 5, 1, 3), {1, 3, 5}, frozenset({5, 3, 1})):
        spec = GeodesicSpec("b6", word, (4, 6, 7, 8, 9), soul)
        assert spec.soul_generators == (1, 3, 5)
    with pytest.raises(MalformedInputError, match="soul generators 2, 3 are adjacent"):
        GeodesicSpec("b6", word, (4, 6, 7, 8, 9), (3, 5, 2))


def test_spec_checks_its_integers_and_ray_rank():
    # the strand count is the ray's rank, so it cannot disagree with the ray
    assert GeodesicSpec("x", FreeWord(4, (1, 4, 2)), (1, 2, 3), {2}).n == 4
    with pytest.raises(MalformedInputError, match="strand count must be >= 2, got 1"):
        GeodesicSpec("x", FreeWord(1, (1,)))
    # a ray that is no word used to raise AttributeError
    for word in ((1, 2), None, BraidWord(3, (1,))):
        with pytest.raises(MalformedInputError) as info:
            GeodesicSpec("x", word)
        assert str(info.value) == f"spec word must be a free word or a stream, got {word!r}"
    for depths, soul, message in (
        ((1.0, 2), (2,), "separating depth must be an integer, got 1.0"),
        ((0, 2), (2,), "separating depth must be >= 1, got 0"),
        ((1, 2), (2.0,), "soul generator must be an integer, got 2.0"),
        ((1, 2), (0,), "soul generator must be >= 1, got 0"),
        ((1, 2), (3,), "soul generator 3 out of range"),
    ):
        with pytest.raises(MalformedInputError) as info:
            GeodesicSpec("x", FreeWord(3, (-1, -2)), depths, soul)
        assert str(info.value) == message


def test_depth_cap_is_a_positive_integer(specs):
    # 2.5 used to build and its first stream sign raised a bare ValueError;
    # True built and reported "words agree beyond depth cap True"
    for cap, message in (
        (2.5, "depth cap must be an integer, got 2.5"),
        (True, "depth cap must be an integer, got True"),
        (0, "depth cap must be >= 1, got 0"),
    ):
        with pytest.raises(MalformedInputError) as info:
            NTOrder(specs["sturmian_3"], FROZEN_CONVENTION, cap)
        assert str(info.value) == message
    assert NTOrder(specs["sturmian_3"], FROZEN_CONVENTION, 1).depth_cap == 1


def test_generator_signs_positive_everywhere(specs):
    for name in ("dehornoy_3", "dehornoy_4", "dehornoy_5", "dehornoy_6", "b4_b", "b4_c", "b6_cx"):
        order = catalog_order(name)
        for i in range(1, order.n):
            assert order.sign(BraidWord(order.n, (i,))) == 1
            assert order.sign(BraidWord(order.n, (-i,))) == -1


def test_example_inequality_on_both_b4_classes():
    for name in ("b4_b", "b4_c"):
        order = catalog_order(name)
        for k in range(0, 31):
            w = BraidWord(4, (3, 2) + (-3,) * (k + 1))
            assert order.sign(w) == 1


def test_nt_matches_handle_reduction_small_ball():
    order = catalog_order("dehornoy_3")
    for w in BallSpec(3, 4).words():
        assert order.sign(w) == dehornoy_sign(w)


@pytest.mark.parametrize("n,L", [(3, 7), (4, 5)])
def test_nt_matches_handle_reduction_extended(n, L):
    # beyond the acceptance bound: thousands more words, still letter-exact
    order = catalog_order(f"dehornoy_{n}")
    for w in BallSpec(n, L).words():
        assert order.sign(w) == dehornoy_sign(w)


def test_calibration_twin_gives_identical_oracle(specs):
    # mirroring the substitution rules and flipping every verdict cancel out
    from braidorders import GermConvention, NTOrder

    spec = specs["dehornoy_3"]
    twin = NTOrder(spec, GermConvention(True, True, False))
    frozen = catalog_order("dehornoy_3")
    for w in BallSpec(3, 5).words():
        assert twin.sign(w) == frozen.sign(w)


def test_nt_cmp_left_invariance(rng):
    order = catalog_order("dehornoy_4")
    for _ in range(200):
        a = random_word(rng, 4, rng.randrange(0, 6))
        b = random_word(rng, 4, rng.randrange(0, 6))
        g = random_word(rng, 4, rng.randrange(0, 6))
        assert order_cmp(order, a, b) == order_cmp(order, multiply(g, a), multiply(g, b))


def test_nt_cmp_left_invariance_exhaustive_small():
    order = catalog_order("dehornoy_3")
    words = list(BallSpec(3, 2).words())
    for a in words:
        for b in words:
            base = order_cmp(order, a, b)
            for g in words:
                assert order_cmp(order, multiply(g, a), multiply(g, b)) == base


def test_moved_ray_inverse_round_trip(rng, specs, conv):
    spec = specs["dehornoy_4"]
    for _ in range(100):
        beta = random_word(rng, 4, rng.randrange(0, 6))
        there = moved_spec(beta, spec, conv)
        back = moved_spec(invert(beta), there, conv)
        assert back.word == spec.word


def test_moved_ray_spiral_blocks(specs, conv):
    # conjugator family sigma2^-j sigma1: the moved ray winds around the two
    # far punctures j times, visible as a j-letter alternating turn block
    # followed by its mirror (frozen from computation)
    spec = specs["dehornoy_3"]
    for j in range(3, 7):
        beta = BraidWord(3, (-2,) * j + (1,))
        letters = moved_spec(beta, spec, conv).word.letters
        turn = tuple(-3 if t % 2 == 0 else -2 for t in range(j))
        assert letters[0] == 1
        assert letters[1 : 1 + j] == turn
        mirror = tuple(-letters[1 + j + t] for t in range(j - 1))
        assert mirror == turn[: j - 1][::-1] == tuple(reversed(turn[: j - 1]))
        assert letters[-2:] == (-1, -1)
        assert len(letters) == 2 * j + 2


def test_moved_ray_order_is_conjugated_order(rng, specs, conv):
    # the order of the moved ray h.gamma agrees with the base order of
    # h^-1 b h: the two notions of conjugate ordering coincide
    from braidorders import NTOrder, conjugate

    spec = specs["dehornoy_4"]
    base = NTOrder(spec, conv)
    for _ in range(200):
        h = random_word(rng, 4, rng.randrange(0, 5))
        beta = random_word(rng, 4, rng.randrange(0, 5))
        moved = NTOrder(moved_spec(h, spec, conv), conv)
        assert moved.sign(beta) == base.sign(conjugate(beta, h))


def test_divergence_depth_examples(specs):
    for n in (3, 4, 5):
        spec = specs[f"dehornoy_{n}"]
        conv = FROZEN_CONVENTION
        full = divergence_depth(NTOrder(spec, conv), BraidWord(n))
        assert full == (len(spec.word.letters), EQUAL)
        # the top generator survives every separation but the last
        top, _ = divergence_depth(NTOrder(spec, conv), BraidWord(n, (n - 1,)))
        assert top >= spec.separating_depths[n - 3]
        assert top < spec.separating_depths[n - 2]
        first, _ = divergence_depth(NTOrder(spec, conv), BraidWord(n, (1,)))
        assert first < spec.separating_depths[0]


RANK_QUERIES = {
    "sign": lambda order, w: order.sign(w),
    "sign of the empty word": lambda order, w: order.sign(BraidWord(w.n)),
    "divergence_depth": divergence_depth,
    "in_convex_subgroup": lambda order, w: in_convex_subgroup(order, w, 1),
    "order_cmp": lambda order, w: order_cmp(order, w, w),
    "moved order": lambda order, w: moved_order(order, BraidWord(order.n, (1,))).sign(w),
    "convex_chain_report": lambda order, w: convex_chain_report(order, BallSpec(w.n, 1)),
    "totality_probe": lambda order, w: totality_probe(order, BallSpec(w.n, 1), 3),
    "totality_probe on the empty ball": lambda order, w: totality_probe(order, BallSpec(w.n, 0), 3),
}


@pytest.mark.parametrize(
    "name, query",
    [(name, q) for name in ("dehornoy_3", "mixed_4") for q in RANK_QUERIES if name == "mixed_4" or "totality" not in q],
)
@pytest.mark.parametrize("extra", [1, -1])
def test_ray_order_queries_reject_other_strand_counts(name, query, extra):
    # the divergence scan used to read a B_4 word on a B_3 ray: depth (2, 0),
    # convex level membership, and totality ties that were B_4 words
    order = catalog_order(name)
    with pytest.raises(MalformedInputError, match="strand counts? differs?"):
        RANK_QUERIES[query](order, BraidWord(order.n + extra, (1,)))


def _two_scan_divergence(order, b):
    # the divergence report from the whole image and two scans: the common
    # prefix length counted here letter by letter, to the cap for a stream
    # (a finite ray is never capped), then the verdict from a divergence scan
    # of rays known to separate
    ray = order.spec.word
    cap = None if isinstance(ray, FreeWord) else order.depth_cap
    image = moved_spec(b, order.spec, order.convention).word
    depth = 0
    for x, y in itertools.zip_longest(ray, image):
        if depth == cap or x != y:
            break
        depth += 1
    if depth == cap:
        return cap, None
    return depth, divergence(ray, image, order.convention, None)[1]


@pytest.mark.parametrize("depth_cap", [512, 16, 4])
def test_divergence_depth_matches_two_scans(depth_cap):
    verdicts = set()
    for name, ball_l in (("dehornoy_4", 4), ("b6_cx", 2), ("sturmian_3", 5), ("mixed_4", 3)):
        order = dataclasses.replace(catalog_order(name), depth_cap=depth_cap)
        for w in BallSpec(order.n, ball_l).words():
            report = divergence_depth(order, w)
            assert report == _two_scan_divergence(order, w), (name, w)
            verdicts.add(report[1])
    assert verdicts == {LESS, EQUAL, GREATER, None}


def test_ray_sign_matches_handle_reduction_on_long_words():
    rng = random.Random(314)
    for n, lengths in ((3, (10, 20)), (4, (10, 28)), (6, (10, 28))):
        order = catalog_order(f"dehornoy_{n}")
        for _ in range(100):
            w = random_word(rng, n, rng.randint(*lengths))
            assert order.sign(w) == dehornoy_sign(w), w


def test_convex_membership_table(specs):
    # sigma_j sits in level i exactly when j > i, with both signs agreeing
    for n in (3, 4, 5):
        spec = specs[f"dehornoy_{n}"]
        conv = FROZEN_CONVENTION
        for i in range(1, n):
            for j in range(1, n):
                expected = j > i
                assert in_convex_subgroup(NTOrder(spec, conv), BraidWord(n, (j,)), i) == expected
                assert in_convex_subgroup(NTOrder(spec, conv), BraidWord(n, (-j,)), i) == expected
    with pytest.raises(MalformedInputError):
        in_convex_subgroup(NTOrder(specs["dehornoy_3"], FROZEN_CONVENTION), BraidWord(3), 5)


def test_convex_membership_closure(rng, specs, conv):
    spec = specs["dehornoy_4"]
    members = [w for w in BallSpec(4, 4).words() if in_convex_subgroup(NTOrder(spec, conv), w, 1)]
    for _ in range(500):
        a, b = rng.choice(members), rng.choice(members)
        assert in_convex_subgroup(NTOrder(spec, conv), multiply(a, b), 1)
        assert in_convex_subgroup(NTOrder(spec, conv), invert(a), 1)


@pytest.mark.xfail(strict=True, reason="depth membership is not closed under products (ROADMAP item 8)")
def test_convex_membership_closure_b4_b():
    order = catalog_order("b4_b")
    a, b = BraidWord(4, (-3, -3)), BraidWord(4, (3, 3, -2))
    assert in_convex_subgroup(order, a, 1) and in_convex_subgroup(order, b, 1)
    assert multiply(a, b) == BraidWord(4, (-2,))
    assert in_convex_subgroup(order, multiply(a, b), 1)


def test_chain_nesting_monotone(specs, conv):
    spec = specs["dehornoy_4"]
    for w in BallSpec(4, 4).words():
        member = [in_convex_subgroup(NTOrder(spec, conv), w, i) for i in (1, 2, 3)]
        for deep, shallow in ((2, 1), (1, 0)):
            if member[deep]:
                assert member[shallow]


def test_chain_report_patterns(specs, conv):
    report = convex_chain_report(NTOrder(specs["dehornoy_4"], conv), BallSpec(4, 4))
    assert [lv.generator_pattern for lv in report.levels] == [(2, 3), (3,), ()]
    assert [lv.violations for lv in report.levels] == [0, 0, 0]
    with pytest.raises(MalformedInputError):
        convex_chain_report(NTOrder(specs["sturmian_3"], FROZEN_CONVENTION), BallSpec(3, 2))


def test_three_b4_classes_distinct(specs, conv):
    reports = {
        name: tuple(
            lv.generator_pattern
            for lv in convex_chain_report(NTOrder(specs[name], conv), BallSpec(4, 3)).levels
        )
        for name in ("b4_a", "b4_b", "b4_c")
    }
    assert len(set(reports.values())) == 3
    assert reports["b4_a"] == ((2, 3), (3,), ())
    assert reports["b4_b"] == ((1, 3), (3,), ())
    assert reports["b4_c"] == ((1, 3), (1,), ())


def test_soul_validation_on_catalog(specs):
    for name, expected in [
        ("dehornoy_3", (2,)),
        ("dehornoy_4", (3,)),
        ("dehornoy_5", (4,)),
        ("dehornoy_6", (5,)),
        ("b4_b", (1, 3)),
        ("b4_c", (1, 3)),
        ("b6_cx", (1, 3, 5)),
        ("sturmian_3", ()),
    ]:
        spec = specs[name]
        conv = FROZEN_CONVENTION
        assert soul_of(NTOrder(spec, conv)) == expected


def test_a_moved_ray_has_no_structure_of_its_base():
    # conjugation moves the separating depths and the soul, so the moved
    # ray's spec carries neither, and the structure queries refuse it rather
    # than read the base's
    moved = moved_order(catalog_order("b4_b"), BraidWord(4, (2,)))
    assert (moved.spec.separating_depths, moved.spec.soul_generators) == ((), ())
    with pytest.raises(MalformedInputError, match="chain report needs at least one depth"):
        convex_chain_report(moved, BallSpec(4, 3))
    with pytest.raises(MalformedInputError, match="finite type needs n-1 separating depths"):
        soul_of(moved)


def test_chain_report_memory_does_not_grow_with_the_ball():
    # two walks keep two images a level, not the ball's 4687 words with
    # their depths; what remains is the ball enumeration's last sphere
    order = catalog_order("b4_b")
    convex_chain_report(order, BallSpec(4, 1))  # letter tables built outside
    tracemalloc.start()
    try:
        report = convex_chain_report(order, BallSpec(4, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [lv.violations for lv in report.levels] == [0, 0, 0]
    assert peak < 1 << 20


def test_chain_report_counts_undecided_member_comparisons():
    # at cap 5, comparisons among mixed_4's level members (finding the
    # level's minimum and maximum) reach the cap: each such word counts once
    # in undecided_skipped, and the level is still reported
    order = dataclasses.replace(catalog_order("mixed_4"), depth_cap=5)
    report = convex_chain_report(order, BallSpec(4, 3))
    assert report == ChainReport((ChainLevel((2, 3), 57, 130, 0),), 33)


def _level_extremes(order, ball):
    """Each level's order-minimum and -maximum image, found as the chain
    report's first walk finds them (an undecided comparison among members
    leaves them as they are)."""
    depths = order.spec.separating_depths
    lo, hi = [None] * len(depths), [None] * len(depths)
    for w in ball.words():
        image = nt._image(order, w)
        depth, _ = nt._scan(order, order.spec.word, image)
        for i in range(bisect_right(depths, depth)):
            try:
                if lo[i] is None:
                    lo[i] = hi[i] = image
                elif nt._image_cmp(order, image, lo[i]) == LESS:
                    lo[i] = image
                elif nt._image_cmp(order, image, hi[i]) == GREATER:
                    hi[i] = image
            except UndecidedComparisonError:
                pass
    return lo, hi


@pytest.mark.parametrize(
    "name, length, cap",
    [
        ("b4_b", 4, 512), ("b4_c", 4, 512), ("dehornoy_4", 4, 512), ("b4_a", 4, 512), ("b6_cx", 3, 512),
        ("mixed_4", 3, 512), ("mixed_4", 3, 2), ("mixed_4", 3, 1), ("mixed_4", 4, 5),
    ],
)
def test_outside_words_meet_a_level_by_their_own_verdict(name, length, cap):
    # the chain report's second walk compares each word g outside level i
    # with the level's minimum and maximum image.  g's depth is decided and
    # below d_i <= cap, and every member's image follows the ray past d_i, so
    # g(R) parts from both where it parts from the ray, with the same germs:
    # each comparison is g's own verdict against the ray, never undecided
    order = dataclasses.replace(catalog_order(name), depth_cap=cap)
    ball = BallSpec(order.n, length)
    depths = order.spec.separating_depths
    lo, hi = _level_extremes(order, ball)
    compared = 0
    for g in ball.words():
        image = nt._image(order, g)
        depth, verdict = nt._scan(order, order.spec.word, image)
        for i in range(bisect_right(depths, depth), len(depths)):
            if lo[i] is None:
                break
            assert verdict is not None, (name, cap, g)
            assert nt._image_cmp(order, lo[i], image) == verdict, (name, cap, g, i)
            assert nt._image_cmp(order, image, hi[i]) == -verdict, (name, cap, g, i)
            compared += 2
    assert compared > 0


def test_a_finite_scan_stops_at_its_letter_budget(monkeypatch):
    # h(R) for h = (1 -2)^k agrees with its image under -1 -2 1 2 for 377
    # letters at k = 8 and 2,584 at k = 10 (the depth grows with the
    # dilatation of h): under a budget of 1024 letters the first sign is
    # still exact, and the second raises the typed error with no partial word
    monkeypatch.setattr(nt, "SCAN_BUDGET", 1024)
    w = BraidWord(3, (-1, -2, 1, 2))
    h = BraidWord(3, (1, -2) * 8)
    assert ConjugatedOrder(catalog_order("dehornoy_3"), h).sign(w) == ConjugatedOrder(DehornoyOrder(3), h).sign(w)
    h = BraidWord(3, (1, -2) * 10)
    with pytest.raises(BudgetExceededError, match="budget of 1024 letters") as info:
        ConjugatedOrder(catalog_order("dehornoy_3"), h).sign(w)
    assert info.value.partial is None
    # the budget binds finite rays only: a stream's scan stops at its depth cap
    monkeypatch.setattr(nt, "SCAN_BUDGET", 1)
    assert divergence_depth(catalog_order("sturmian_3"), BraidWord(3, (1,)))[1] is not None
    with pytest.raises(BudgetExceededError):
        divergence_depth(catalog_order("dehornoy_3"), BraidWord(3, (2,)))


def test_soul_validation_mismatch_raises(specs, conv):
    broken = GeodesicSpec(
        "broken", specs["dehornoy_3"].word, (1, 2), (1,)
    )
    with pytest.raises(SoulValidationError):
        soul_of(NTOrder(broken, conv))


def test_depth_cap_leaves_finite_reports_unchanged(specs):
    # the cap bounds a stream's scan only: a finite ray decides every depth,
    # so its letter depths, soul and chain are those of the default cap
    for name, spec in specs.items():
        if spec.type_tag != "finite":
            continue
        ball = BallSpec(spec.n, 2 if name == "b6_cx" else 3)
        default = catalog_order(name)
        expected = (letter_depths(default), soul_of(default), convex_chain_report(default, ball))
        for cap in (1, 3, 5, 512):
            order = dataclasses.replace(catalog_order(name), depth_cap=cap)
            assert (letter_depths(order), soul_of(order), convex_chain_report(order, ball)) == expected, (name, cap)


def test_conrad_witness_canonical_pairs(specs):
    for name, f_letters, g_letters in (("dehornoy_3", (-2, 1), (1,)), ("b4_b", (-3, 2), (2,))):
        order = catalog_order(name)
        f, g = BraidWord(order.n, f_letters), BraidWord(order.n, g_letters)
        assert is_conrad_witness(order, f, g, 20)
        # g g^0 = g is not below g, and f^-1 is not positive
        assert not is_conrad_witness(order, g, g, 20)
        assert not is_conrad_witness(order, invert(f), g, 20)
        with pytest.raises(MalformedInputError, match="k_max must be non-negative, got -1"):
            is_conrad_witness(order, f, g, -1)


def test_conrad_search_finds_witness():
    order = catalog_order("dehornoy_3")
    witness = conrad_witness_search(order, 10, BallSpec(3, 2))
    assert order.sign(witness.f) == 1 and order.sign(witness.g) == 1
    gk = BraidWord(3)
    for _ in range(11):
        assert order.sign(multiply(invert(multiply(witness.f, gk)), witness.g)) > 0
        gk = multiply(gk, witness.g)


def test_conrad_search_failure_reported():
    from braidorders import SearchFailureError

    order = catalog_order("dehornoy_3")
    with pytest.raises(SearchFailureError):
        conrad_witness_search(order, 5, BallSpec(3, 0))


def test_soul_elements_satisfy_conrad_property(rng):
    # restricted to the abelian soul the property holds at k = 1 already
    order = catalog_order("b6_cx")
    soul = sorted(order.spec.soul_generators)
    for _ in range(200):
        f = BraidWord(6, tuple(rng.choice([(i,)] * 3 + [(-i,)])[0] for i in soul for _ in range(rng.randrange(0, 3))))
        g = BraidWord(6, tuple(i for i in soul for _ in range(rng.randrange(1, 3))))
        if order.sign(f) <= 0 or order.sign(g) <= 0:
            continue
        assert order.sign(multiply(invert(g), multiply(f, g))) > 0  # f g > g


@pytest.mark.parametrize(
    "name,cases",
    [("dehornoy_3", 500), ("b4_b", 500), ("b4_c", 500), ("b6_cx", 500),
     ("sturmian_3", 200), ("mixed_4", 200)],
)
def test_subword_property_all_catalog_orders(rng, name, cases):
    # inserting a positive half-twist anywhere strictly increases the braid
    order = catalog_order(name)
    n = order.n
    for _ in range(cases):
        w = random_word(rng, n, rng.randrange(0, 6))
        pos = rng.randrange(0, len(w.letters) + 1)
        i = rng.randrange(1, n)
        bigger = BraidWord(n, w.letters[:pos] + (i,) + w.letters[pos:])
        assert order_cmp(order, w, bigger) == -1


def test_totality_probe_sturmian(specs, conv):
    report = totality_probe(NTOrder(specs["sturmian_3"], conv), BallSpec(3, 5), 20)
    assert not report.tie_words
    assert report.records[-1][0] >= 20
    depths = [d for d, _ in report.records]
    assert depths == sorted(depths)


@pytest.mark.parametrize("name,ball_l", [("sturmian_4", 2), ("sturmian_5", 2), ("mixed_4", 3)])
def test_block_streams_have_no_small_stabilizers(specs, name, ball_l):
    # regression: block tails must not assemble braid-invariant loop
    # products (the boundary loop, or an aligned x_i x_{i+1})
    spec = specs[name]
    conv = FROZEN_CONVENTION
    report = totality_probe(NTOrder(spec, conv), BallSpec(spec.n, ball_l), 4)
    assert not report.tie_words


def test_totality_probe_periodic_control(conv):
    from braidorders import EventuallyPeriodic

    control = GeodesicSpec("control", EventuallyPeriodic(FreeWord(3, (1,)), FreeWord(3, (2, 1))))
    report = totality_probe(NTOrder(control, conv), BallSpec(3, 3), 5)
    assert BraidWord(3, (1,)) in report.tie_words


def test_totality_probe_rejects_finite(specs, conv):
    with pytest.raises(MalformedInputError):
        totality_probe(NTOrder(specs["dehornoy_3"], conv), BallSpec(3, 2), 5)


def test_spec_file_round_trip(specs):
    for name in ("dehornoy_3", "b6_cx", "sturmian_3", "mixed_4"):
        spec = specs[name]
        try:
            text = format_geodesic_spec(spec)
        except MalformedInputError:
            continue  # custom streams have no text form
        parsed = parse_geodesic_spec(text)
        assert parsed.name == spec.name
        assert parsed.separating_depths == spec.separating_depths
        assert parsed.soul_generators == spec.soul_generators
        if isinstance(spec.word, FreeWord):
            assert parsed.word == spec.word
