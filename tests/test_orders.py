from dataclasses import replace

import pytest

from braidorders import (
    BallSpec,
    DEFAULT_DEPTH_CAP,
    BraidWord,
    ConjugatedOrder,
    ConvexExtensionOrder,
    DehornoyOrder,
    GeodesicSpec,
    MalformedInputError,
    ZkIntegerSlope,
    ZkLex,
    ZkQuadraticSlope,
    catalog_order,
    invert,
    multiply,
    order_cmp,
    soul_lex_of_base,
    zk_membership,
    zk_sign,
)
from braidorders.cli import parse_order

from words import random_word

RELATORS = {
    3: [(1, 2, 1, -2, -1, -2)],
    4: [(1, 2, 1, -2, -1, -2), (2, 3, 2, -3, -2, -3), (1, 3, -1, -3)],
}


def oracle_zoo():
    dehornoy3 = DehornoyOrder(3)
    nt3 = catalog_order("dehornoy_3")
    conj = ConjugatedOrder(dehornoy3, BraidWord(3, (-2, -2, 1)))
    b6 = catalog_order("b6_cx")
    ext = ConvexExtensionOrder(b6, soul_lex_of_base(b6))
    sturm = catalog_order("sturmian_3")
    return [dehornoy3, nt3, conj, ext, sturm]


@pytest.mark.parametrize("oracle_index", range(5))
def test_oracle_axioms(rng, oracle_index):
    # an infinite-type oracle cannot return zero; on trivial braids it
    # surfaces an undecided comparison instead, which is checked as such
    from braidorders import UndecidedComparisonError, is_trivial_braid

    oracle = oracle_zoo()[oracle_index]
    n = oracle.n
    count = 0
    while count < 500:
        a = random_word(rng, n, rng.randrange(0, 6))
        b = random_word(rng, n, rng.randrange(0, 6))
        try:
            assert oracle.sign(invert(a)) == -oracle.sign(a)
            if oracle.sign(a) == 1 and oracle.sign(b) == 1:
                assert oracle.sign(multiply(a, b)) == 1
        except UndecidedComparisonError:
            assert is_trivial_braid(a) or is_trivial_braid(b) or is_trivial_braid(multiply(a, b))
        count += 1


@pytest.mark.parametrize("oracle_index", range(5))
def test_oracle_relator_invariance(rng, oracle_index):
    from braidorders import UndecidedComparisonError, is_trivial_braid

    oracle = oracle_zoo()[oracle_index]
    n = oracle.n
    relators = RELATORS.get(n, RELATORS[4])
    for _ in range(100):
        w = random_word(rng, n, rng.randrange(0, 6))
        rel = rng.choice(relators)
        rel = tuple(k if abs(k) < n else 0 for k in rel)
        if 0 in rel:
            continue
        pos = rng.randrange(0, len(w.letters) + 1)
        padded = BraidWord(n, w.letters[:pos] + rel + w.letters[pos:])
        try:
            assert oracle.sign(padded) == oracle.sign(w)
        except UndecidedComparisonError:
            assert is_trivial_braid(w)


def random_relator(rng, n):
    """A braid relation or a far commutation, as a word equal to 1 in B_n."""
    i = rng.randrange(1, n - 1)
    far = [j for j in range(1, n) if abs(j - i) >= 2]
    if far and rng.random() < 0.5:
        j = rng.choice(far)
        return (i, j, -i, -j)
    return (i, i + 1, i, -(i + 1), -i, -(i + 1))


@pytest.mark.parametrize(
    "text, n",
    [
        ("nt:sturmian_3", 3),
        ("nt:sturmian_4", 4),
        ("nt:sturmian_5", 5),
        ("nt:sturmian_6", 6),
        ("nt:mixed_4", 4),
        ("nt:b4_b", 4),
        ("nt:b4_c", 4),
        ("nt:b6_cx", 6),
        ("ext:nt:b6_cx:slope(4,2,1)", 6),
        ("conj:nt:sturmian_4:-2 1 3", 4),
    ],
)
def test_order_axioms_on_long_words(rng, text, n):
    # far past the balls of the other axiom tests: antisymmetry, invariance
    # under an inserted relator, and closure of the positive cone, on random
    # reduced words of length 64-256; none of them is trivial, so each sign
    # must be decided
    order = parse_order(text, n, DEFAULT_DEPTH_CAP)
    previous = None
    for _ in range(40):
        w = random_word(rng, n, rng.randrange(64, 257))
        sign = order.sign(w)
        assert sign != 0 and order.sign(invert(w)) == -sign, w
        pos = rng.randrange(len(w.letters) + 1)
        padded = BraidWord(n, w.letters[:pos] + random_relator(rng, n) + w.letters[pos:])
        assert order.sign(padded) == sign, (w, padded)
        positive = w if sign > 0 else invert(w)
        if previous is not None:
            assert order.sign(multiply(previous, positive)) == 1, (previous, positive)
        previous = positive


def test_zero_only_on_trivial(rng):
    for oracle in oracle_zoo()[:4]:
        n = oracle.n
        for _ in range(100):
            w = random_word(rng, n, rng.randrange(1, 5))
            if DehornoyOrder(n).sign(w) != 0:
                assert oracle.sign(w) != 0


def test_conjugation_by_identity_and_inverse(rng):
    base = DehornoyOrder(3)
    ball = BallSpec(3, 4)
    ident = ConjugatedOrder(base, BraidWord(3))
    for w in ball.words():
        assert ident.sign(w) == base.sign(w)
    h = BraidWord(3, (-2, 1))
    double = ConjugatedOrder(ConjugatedOrder(base, h), invert(h))
    for w in ball.words():
        assert double.sign(w) == base.sign(w)


def test_conjugation_composition_convention(rng):
    # nesting composes contravariantly:
    # conj(conj(o, h1), h2).sign(b) = o.sign((h2 h1)^-1 b (h2 h1))
    base = DehornoyOrder(3)
    for w in BallSpec(3, 3).words():
        for h1l, h2l in [((1,), (2,)), ((-2, 1), (2, 2)), ((1, 2), (-1,))]:
            h1, h2 = BraidWord(3, h1l), BraidWord(3, h2l)
            nested = ConjugatedOrder(ConjugatedOrder(base, h1), h2)
            flat = ConjugatedOrder(base, multiply(h2, h1))
            assert nested.sign(w) == flat.sign(w)


def test_cle_conjugated_positivity(rng):
    # sigma1-dominant words stay positive under conjugation by s2^-j s1
    # once j clears the leading s2 exponent
    base = DehornoyOrder(3)
    for _ in range(200):
        k1 = rng.randrange(-4, 5)
        ell = rng.randrange(1, 4)
        letters = []
        letters.extend([2 if k1 > 0 else -2] * abs(k1))
        letters.append(1)
        for _ in range(ell - 1):
            k = rng.randrange(-3, 4)
            letters.extend([2 if k > 0 else -2] * abs(k))
            letters.append(1)
        w = BraidWord(3, tuple(letters))
        for j in range(max(0, -k1) + 1, max(0, -k1) + 4):
            conj = ConjugatedOrder(base, BraidWord(3, (-2,) * j + (1,)))
            assert conj.sign(w) == 1, (w, j)


def test_zk_lex_examples():
    lex = ZkLex.standard(2)
    assert zk_sign(lex, (0, 0)) == 0
    assert zk_sign(lex, (0, -3)) == -1
    assert zk_sign(lex, (2, -5)) == 1
    reversed_first = ZkLex((0, 1), (-1, 1))
    assert zk_sign(reversed_first, (1, 0)) == -1


def test_zk_fields_are_integers():
    # float fields used to build and compare in float arithmetic (a float
    # sign came back as the sign), or raise TypeError
    lex = ZkLex.standard(2)
    for build, message in (
        (lambda: ZkIntegerSlope((0.5, 1.5), lex), "slope weight must be an integer, got 0.5"),
        # a tie break that is no ZkLex used to raise AttributeError
        (lambda: ZkIntegerSlope((1,), None), "slope tie break must be a ZkLex, got None"),
        (lambda: ZkIntegerSlope((1,), (0,)), "slope tie break must be a ZkLex, got (0,)"),
        (lambda: ZkLex((0,), (1.0,)), "lex sign must be an integer, got 1.0"),
        (lambda: ZkLex((0.0,), (1,)), "lex axis must be an integer, got 0.0"),
        (lambda: ZkQuadraticSlope(2.0, ((1, 0),)), "qslope d must be an integer, got 2.0"),
        (lambda: ZkQuadraticSlope(2, ((1, 0.5),)), "qslope weight must be an integer, got 0.5"),
        (lambda: ZkQuadraticSlope(2, ((1, 0, 3),)), "qslope weight must be a pair (a, b), got (1, 0, 3)"),
    ):
        with pytest.raises(MalformedInputError) as info:
            build()
        assert str(info.value) == message


def test_zk_integer_slope_with_tie_break():
    slope = ZkIntegerSlope((2, 1), ZkLex.standard(2))
    assert zk_sign(slope, (1, -2)) == 0 + zk_sign(ZkLex.standard(2), (1, -2))
    assert zk_sign(slope, (1, -1)) == 1
    assert zk_sign(slope, (-1, 1)) == -1
    with pytest.raises(MalformedInputError):
        zk_sign(slope, (1, 2, 3))


def test_zk_quadratic_slope_exact():
    spec = ZkQuadraticSlope(2, ((1, 0), (0, 1)))  # weights 1, sqrt(2)
    assert zk_sign(spec, (-3, 2)) == -1  # 2 sqrt2 < 3
    assert zk_sign(spec, (-4, 3)) == 1  # 3 sqrt2 > 4
    assert zk_sign(spec, (0, 0)) == 0
    # no nonzero vector maps to zero for d = 2, 3
    for d in (2, 3):
        s = ZkQuadraticSlope(d, ((1, 0), (0, 1)))
        for a in range(-50, 51):
            for b in range(-50, 51):
                if (a, b) != (0, 0):
                    assert zk_sign(s, (a, b)) != 0


def test_zk_quadratic_slope_must_be_total():
    # Q(sqrt d) has dimension 2 over Q: a weight sum vanishes on a nonzero
    # vector for every rank-3 form, and for rank 2 with dependent weights
    assert zk_sign(ZkQuadraticSlope(2, ((0, -1),)), (3,)) == -1
    for weights in (
        ((1, 0), (0, 1), (1, 1)),
        ((1, 2), (2, 4)),
        ((0, 0), (0, 1)),
        ((0, 0),),
        (),
    ):
        with pytest.raises(MalformedInputError, match="qslope needs k = 1 with a nonzero weight"):
            ZkQuadraticSlope(2, weights)


def test_convex_extension_needs_a_finite_ray():
    # a stream base with a nonempty soul is infinite type, whatever it names
    base = catalog_order("b4_b")
    stream = GeodesicSpec("s", catalog_order("sturmian_4").spec.word, (2, 3, 4), (1, 3))
    lex = ZkLex.standard(2)
    ConvexExtensionOrder(base, lex)
    with pytest.raises(MalformedInputError, match="convex extension needs a finite-type base"):
        ConvexExtensionOrder(replace(base, spec=stream), lex)


def test_zk_membership_examples():
    w = BraidWord(5, (1, 1, 1, -3, -3))
    assert zk_membership(w, (1, 3)) == (3, -2)
    assert zk_membership(BraidWord(4, (2,)), (1, 3)) is None
    assert zk_membership(BraidWord(4), (1, 3)) == (0, 0)
    with pytest.raises(MalformedInputError):
        zk_membership(BraidWord(4, (1,)), (1, 2))
    # the soul comes in axis order, as a spec keeps it
    with pytest.raises(MalformedInputError, match="soul generators 3, 1 are adjacent or out of order"):
        zk_membership(BraidWord(4, (1,)), (3, 1))


def test_zk_membership_conjugates(rng):
    # h s1^3 h^-1 lies in <s1> only when the conjugation fixes it
    from braidorders import is_trivial_braid

    for _ in range(60):
        h = random_word(rng, 3, rng.randrange(0, 5))
        w = multiply(multiply(h, BraidWord(3, (1, 1, 1))), invert(h))
        vec = zk_membership(w, (1,))
        stays = is_trivial_braid(multiply(w, invert(BraidWord(3, (1, 1, 1)))))
        if stays:
            assert vec == (3,)
        elif vec is not None:
            assert vec == (3,)
            assert is_trivial_braid(multiply(w, invert(BraidWord(3, (1, 1, 1)))))


def test_convex_extension_reversed_axis():
    base = catalog_order("dehornoy_3")
    reversed_soul = ZkLex((0,), (-1,))
    ext = ConvexExtensionOrder(base, reversed_soul)
    assert ext.sign(BraidWord(3, (2, 2, 2, 2, 2))) == -1
    # outside the soul the base decides
    assert ext.sign(BraidWord(3, (1,))) == base.sign(BraidWord(3, (1,)))
    assert ext.sign(BraidWord(3, (-2, 1))) == base.sign(BraidWord(3, (-2, 1)))


def test_convex_extension_self_restriction_identity():
    for name in ("dehornoy_3", "b6_cx"):
        base = catalog_order(name)
        ext = ConvexExtensionOrder(base, soul_lex_of_base(base))
        ball = BallSpec(base.n, 4 if base.n == 3 else 2)
        for w in ball.words():
            assert ext.sign(w) == base.sign(w)


def test_convex_extension_requires_soul():
    sturm = catalog_order("sturmian_3")
    with pytest.raises(MalformedInputError):
        ConvexExtensionOrder(sturm, ZkLex.standard(1))


def test_half_twist_conjugation_mirrors_the_soul():
    # conjugating by the positive half twist sends sigma_i to sigma_(n-i),
    # so the soul generator of the conjugated dehornoy_4 order is sigma_1:
    # its powers stay below every other positive generator
    base = catalog_order("dehornoy_4")
    delta = BraidWord(4, (1, 2, 1, 3, 2, 1))
    mirrored = ConjugatedOrder(base, delta)
    s2, s3 = BraidWord(4, (2,)), BraidWord(4, (3,))
    for k in range(1, 21):
        s1k = BraidWord(4, (1,) * k)
        assert order_cmp(mirrored, s1k, s2) == -1
        assert order_cmp(mirrored, s1k, s3) == -1
        # while in the base order sigma_3 is the infinitesimal one
        assert order_cmp(base, BraidWord(4, (3,) * k), BraidWord(4, (1,))) == -1


def test_b4_classes_not_conjugate_on_sampled_conjugators():
    # the three chains are pairwise distinct; no sampled conjugate of one
    # order matches another on the L=3 ball
    from braidorders import BallSpec, agreement_radius

    orders = {name: catalog_order(name) for name in ("b4_a", "b4_b", "b4_c")}
    ball = BallSpec(4, 3)
    for h in BallSpec(4, 2).words():
        for left in ("b4_a", "b4_b"):
            for right in ("b4_b", "b4_c"):
                if left == right:
                    continue
                conj = ConjugatedOrder(orders[left], h)
                report = agreement_radius(conj, orders[right], ball)
                assert report.witness is not None, (left, right, h)


def test_order_cmp_antisymmetry(rng):
    oracle = catalog_order("b4_b")
    for _ in range(200):
        a = random_word(rng, 4, rng.randrange(0, 5))
        b = random_word(rng, 4, rng.randrange(0, 5))
        assert order_cmp(oracle, a, b) == -order_cmp(oracle, b, a)


def test_sign_oracles_reject_other_strand_counts():
    word = BraidWord(5, (4,))
    for oracle in (DehornoyOrder(3), catalog_order("dehornoy_3")):
        with pytest.raises(MalformedInputError, match="strand counts differ"):
            oracle.sign(word)


def test_b6_oracles_reject_more_and_fewer_strands():
    # the extension read an 8-strand word's soul exponents and signed it
    b6 = catalog_order("b6_cx")
    oracles = (
        DehornoyOrder(6),
        b6,
        ConjugatedOrder(b6, BraidWord(6, (-3, 4))),
        ConvexExtensionOrder(b6, ZkLex.standard(3)),
    )
    for oracle in oracles:
        for word in (BraidWord(8, (1,)), BraidWord(4, (1,))):
            with pytest.raises(MalformedInputError, match="strand counts differ"):
                oracle.sign(word)
