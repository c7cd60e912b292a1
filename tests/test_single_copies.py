"""Each rule written once agrees with the second copy it replaced.

The replaced code lives on here as the reference: the Sturmian floor with its
two correction loops, the Sturmian slope bound read off square roots in place
of that floor, the two letter parsers with their empty-text branches,
the two ``--pattern`` readers (an s/u reader of two generator indices beside
the s/<braid word> one that now serves both commands), the order comparison
on a hand-made product,
the totality probe with its twice-multiplied conjugates, the chain report
that kept a word list beside a dict of depths, and the comparison of two
braids under a ray order by the sign of their product a^-1 b, which the
comparison of their images a(R) and b(R) replaced.
"""

import dataclasses
import random
from math import isqrt

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    DehornoyOrder,
    FreeWord,
    MalformedInputError,
    QuadraticIrrational,
    Sturmian,
    UndecidedComparisonError,
    catalog_order,
    conjugate,
    convex_chain_report,
    invert,
    multiply,
    order_cmp,
    parse_braid,
    parse_free_word,
    sigma,
    small_positive_search,
    totality_probe,
)
from braidorders.braids import _trusted_word, inverse_letters
from braidorders.catalog import STURMIAN_SLOPE, catalog
from braidorders.cli import _slash_pattern
from braidorders.freewords import reduce_free
from braidorders.nt import ChainLevel, ChainReport, TotalityReport, _level_patterns, divergence_depth
from braidorders.orders import ConjugatedOrder
from braidorders.planar import DEFAULT_DEPTH_CAP, GREATER, LESS

from words import random_word


# --- the Sturmian floor -------------------------------------------------------


def _le_sqrt(a, m):
    return a <= 0 or a * a <= m


def floor_times_with_loops(qi, k):
    """The floor as it was: the isqrt estimate, corrected by the defining
    inequalities s q - k p <= sqrt(k^2 d) < (s + 1) q - k p."""
    if k == 0:
        return 0
    m = k * k * qi.d
    s = (k * qi.p + isqrt(m)) // qi.q
    while _le_sqrt(qi.q * (s + 1) - k * qi.p, m):
        s += 1
    while not _le_sqrt(qi.q * s - k * qi.p, m):
        s -= 1
    return s


def random_irrational(rng):
    scale = rng.choice((10, 10**3, 10**6, 10**12))
    while True:
        d = rng.randint(2, scale)
        if isqrt(d) ** 2 != d:
            break
    p = rng.randint(-scale, scale)
    q = rng.randint(1, rng.choice((2, 10**3, 10**9)))
    return QuadraticIrrational(d, p, q)


def test_floor_times_matches_correction_loops():
    rng = random.Random(20261019)
    cases = 0
    for _ in range(2500):
        qi = random_irrational(rng)
        ks = [rng.randint(0, 10**9) for _ in range(15)]
        ks += [rng.randint(0, 100) for _ in range(15)]
        ks += [rng.randint(0, 10**18) for _ in range(10)]
        ks += [0, 1, 10**9]
        for k in ks:
            assert qi.floor_times(k) == floor_times_with_loops(qi, k), (qi, k)
            cases += 1
    for k in range(10**4):
        assert STURMIAN_SLOPE.floor_times(k) == floor_times_with_loops(STURMIAN_SLOPE, k), k
        cases += 1
    assert cases >= 10**5


def test_floor_times_on_slopes_just_off_an_integer():
    # p + sqrt(d) just below or above a multiple of q: the estimate has no
    # slack on either side
    for root in (10, 1000, 10**6, 10**9):
        for d in (root * root - 1, root * root + 1):
            for q in (1, 2, 3, root, root + 1):
                for p in (-root, -root + 1, 0, 1, q - root):
                    qi = QuadraticIrrational(d, p, q)
                    for k in (0, 1, 2, 3, q, q + 1, 10**9, 10**9 + 7):
                        assert qi.floor_times(k) == floor_times_with_loops(qi, k), (qi, k)


def slope_check_as_it_was(qi):
    """The Sturmian slope bound as it was: 0 < p + sqrt(d) < q."""
    return _le_sqrt(-qi.p, qi.d) and not _le_sqrt(qi.q - qi.p, qi.d)


def sturmian_accepts(qi):
    try:
        Sturmian(3, qi, 1, 2)
    except MalformedInputError as exc:
        assert str(exc) == f"Sturmian slope ({qi.p} + sqrt({qi.d}))/{qi.q} is not in (0, 1)"
        return False
    return True


def test_sturmian_slope_check_matches_square_root_rule():
    # p at and around both ends of the interval, -isqrt(d) and q - isqrt(d),
    # and anywhere in a window around it
    rng = random.Random(20261020)
    verdicts = []
    for _ in range(4000):
        qi = random_irrational(rng)
        d, q, root = qi.d, qi.q, isqrt(qi.d)
        ps = [-root + e for e in (-1, 0, 1)] + [q - root + e for e in (-1, 0, 1)]
        ps += [rng.randint(-root - 2, q - root + 2) for _ in range(4)]
        for p in ps:
            slope = QuadraticIrrational(d, p, q)
            verdict = slope_check_as_it_was(slope)
            assert sturmian_accepts(slope) == verdict, slope
            verdicts.append(verdict)
    assert len(verdicts) == 40000 and 0.2 < sum(verdicts) / len(verdicts) < 0.8


# --- the letter readers -------------------------------------------------------


def parse_braid_as_it_was(text, n):
    text = text.strip()
    if not text:
        return BraidWord(n)
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse braid word {text!r}: {exc}") from None
    return BraidWord(n, letters)


def parse_free_word_as_it_was(text, n):
    text = text.strip()
    if not text:
        return FreeWord(n, ())
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse free word {text!r}: {exc}") from None
    return FreeWord(n, letters)


def outcome(read, *args):
    """What a reader returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


READER_TEXTS = (
    "", "   ", "\t\n", "1", " 1 -2 1 ", "1 -1", "2 1 -1 -2", "3", "-3", "0", "1 x", " x 1 ",
    "1.5", "1,2", "+2 -1", "1\t-2\n1", "4 -4", "0x1", "١", "--1", "1 2 3 4",
)


@pytest.mark.parametrize("n", (2, 3, 4, 2.5, True))
def test_letter_readers_match_their_old_copies(n):
    for text in READER_TEXTS:
        assert outcome(parse_braid, text, n) == outcome(parse_braid_as_it_was, text, n), text
        assert outcome(parse_free_word, text, n) == outcome(parse_free_word_as_it_was, text, n), text


# --- the --pattern readers ----------------------------------------------------


def conjugator_pattern_as_it_was(text, n):
    s_text, slash, u_text = text.partition("/")
    try:
        if not slash:
            raise ValueError("no '/'")
        return int(s_text), parse_braid(u_text, n)
    except ValueError as exc:
        raise MalformedInputError(f"--pattern must look like s/<braid word>, got {text!r} ({exc})") from None


def limit_pattern_as_it_was(text):
    s_text, slash, u_text = text.partition("/")
    try:
        if not slash:
            raise ValueError("no '/'")
        return int(s_text), int(u_text)
    except ValueError as exc:
        raise MalformedInputError(f"--pattern must look like s/u, got {text!r} ({exc})") from None


PATTERN_TEXTS = (
    "3/4", "2/1 -2", "2/", "/1", "2", "", "x/1", "2/x", "3/1 2", "1/1/2", " 2 / 1 ", "2/5", "-1/-2", "2/0",
)


def test_slash_pattern_matches_both_old_readers():
    # the old readers accepted any s, which failed later, as a generator
    # index; an s outside 1..n-1 now fails in the reader, after u
    bad_s = []
    s_error = r"^--pattern must look like s/<braid word>, got .* \(generator index"
    for text in PATTERN_TEXTS:
        old = outcome(conjugator_pattern_as_it_was, text, 3)
        if isinstance(old[0], int) and not 1 <= old[0] <= 2:
            bad_s.append(text)
            with pytest.raises(MalformedInputError, match=s_error):
                _slash_pattern(text, 3)
        else:
            assert outcome(_slash_pattern, text, 3) == old, text
    assert bad_s == ["3/1 2", "-1/-2"]
    # each s/u text reads as s and the one-letter word u; u = 0 and u = 9 were
    # accepted as indices and failed later, as conjugator letters, and now
    # fail in the reader, as s = -1 does
    accepted = 0
    for text in PATTERN_TEXTS + ("3/9", "3/-5"):
        try:
            s, u = limit_pattern_as_it_was(text)
        except MalformedInputError:
            continue
        accepted += 1
        if 1 <= abs(u) <= 5 and 1 <= s <= 5:
            assert _slash_pattern(text, 6) == (s, BraidWord(6, (u,))), text
        else:
            with pytest.raises(MalformedInputError, match="^--pattern must look like s/<braid word>, got "):
                _slash_pattern(text, 6)
    assert accepted == 7


# --- products from braids -----------------------------------------------------


def order_cmp_as_it_was(oracle, a, b):
    if a.n != b.n:
        raise MalformedInputError(f"strand counts differ: {a.n} vs {b.n}")
    return -oracle.sign(_trusted_word(a.n, reduce_free(inverse_letters(a.letters) + b.letters)))


def test_order_cmp_matches_the_hand_made_product():
    words = list(BallSpec(3, 3).words())
    for oracle in (
        DehornoyOrder(3),
        catalog_order("dehornoy_3"),
        ConjugatedOrder(catalog_order("b4_b"), BraidWord(4, (2, -1))),
    ):
        ball = words if oracle.n == 3 else list(BallSpec(4, 2).words())
        for a in ball:
            for b in ball:
                assert order_cmp(oracle, a, b) == order_cmp_as_it_was(oracle, a, b), (a, b)
    a, b = BraidWord(3, (1,)), BraidWord(4, (1,))
    assert outcome(order_cmp, DehornoyOrder(3), a, b) == outcome(order_cmp_as_it_was, DehornoyOrder(3), a, b)


def product_cmp(oracle, a, b):
    """The comparison as it was for every oracle: a < b iff a^-1 b is positive."""
    return -oracle.sign(multiply(invert(a), b))


def _cmp_outcome(compare, oracle, a, b):
    try:
        return compare(oracle, a, b)
    except UndecidedComparisonError:
        return None


def _finite_names():
    return [name for name, spec in catalog().items() if spec.type_tag == "finite"]


@pytest.mark.parametrize("name", _finite_names())
def test_image_comparison_matches_the_product_rule(name):
    # by left invariance a < b iff a(R) < b(R): whole balls, then random pairs
    # of longer words, with pairs of equal braids written differently among them
    order = catalog_order(name)
    ball = list(BallSpec(order.n, 3 if order.n == 3 else 2).words())
    for a in ball:
        for b in ball:
            assert order_cmp(order, a, b) == product_cmp(order, a, b), (a, b)
    rng = random.Random(f"image-cmp:{name}")
    for _ in range(300):
        a = random_word(rng, order.n, rng.randrange(0, 9))
        b = random_word(rng, order.n, rng.randrange(0, 9))
        if rng.random() < 0.2:  # the same braid, by the braid relation
            b = BraidWord(order.n, a.letters + (1, 2, 1, -2, -1, -2))
        assert order_cmp(order, a, b) == product_cmp(order, a, b), (a, b)


def test_ray_order_comparisons_form_no_product(monkeypatch):
    # a ray order compares images, so its comparisons run with nt's invert
    # gone; any other oracle signs the product a^-1 b, and so needs it
    def no_inverse(b):
        raise AssertionError(f"inverted {b}")

    monkeypatch.setattr("braidorders.nt.invert", no_inverse)
    for name in _finite_names():
        order = catalog_order(name)
        ball = list(BallSpec(order.n, 2).words())
        for a in ball:
            for b in ball:
                order_cmp(order, a, b)
    convex_chain_report(catalog_order("b4_b"), BallSpec(4, 3))
    small_positive_search(catalog_order("dehornoy_3"), [2], BallSpec(3, 2))
    with pytest.raises(AssertionError, match="inverted"):
        order_cmp(DehornoyOrder(3), BraidWord(3, (1,)), BraidWord(3, (2,)))


@pytest.mark.parametrize("name", ["sturmian_3", "sturmian_4", "mixed_4", "sturmian_5"])
def test_image_comparison_on_streams(name):
    # at the default cap both rules leave the same pairs undecided on these
    # balls (images of one braid written twice); at any cap the verdicts
    # they do reach agree, but the cap binds the images' common prefix, not
    # that of the ray and the product's image, so which pairs reach it can
    # differ (at cap 64, sturmian_3 leaves 2 against 2 1 undecided)
    base = catalog_order(name)
    ball = list(BallSpec(base.n, 3 if base.n == 3 else 2).words())
    for cap in (DEFAULT_DEPTH_CAP, 64, 5):
        order = dataclasses.replace(base, depth_cap=cap)
        for a in ball:
            for b in ball:
                image, product = _cmp_outcome(order_cmp, order, a, b), _cmp_outcome(product_cmp, order, a, b)
                if cap == DEFAULT_DEPTH_CAP:
                    assert image == product, (a, b)
                elif image is not None and product is not None:
                    assert image == product, (cap, a, b)
    if name == "sturmian_3":
        order = dataclasses.replace(base, depth_cap=64)
        a, b = BraidWord(3, (2,)), BraidWord(3, (2, 1))
        assert (_cmp_outcome(order_cmp, order, a, b), _cmp_outcome(product_cmp, order, a, b)) == (None, LESS)


def test_one_conjugate_call_matches_two_products():
    for n in (3, 4):
        for g in BallSpec(n, 4).words():
            for i in range(1, n):
                for e in (1, -1, 2, -2):
                    s = sigma(n, i, e)
                    once = conjugate(s, invert(g))
                    assert once.letters == multiply(multiply(g, s), invert(g)).letters, (g, i, e)


def totality_probe_as_it_was(order, ball, depth_target):
    ties, records, best = [], [], -1

    def consider(w, tie_eligible):
        nonlocal best
        if not w.letters:
            return
        depth, verdict = divergence_depth(order, w)
        if verdict is None:
            if tie_eligible:
                ties.append(w)
            return
        if depth > best:
            best = depth
            records.append((depth, w))

    for w in ball.words():
        consider(w, tie_eligible=True)
    if best < depth_target:
        for g in ball.words():
            if best >= depth_target:
                break
            for i in range(1, order.n):
                for e in (1, -1, 2, -2):
                    consider(multiply(multiply(g, sigma(order.n, i, e)), invert(g)), tie_eligible=False)
    return TotalityReport(tuple(ties), tuple(records))


@pytest.mark.parametrize("name, n, length", [("sturmian_3", 3, 2), ("sturmian_4", 4, 2), ("mixed_4", 4, 2)])
def test_totality_probe_matches_the_two_product_conjugates(name, n, length):
    order = dataclasses.replace(catalog_order(name), depth_cap=64)
    for target in (5, 12, 40):
        ball = BallSpec(n, length)
        assert totality_probe(order, ball, target) == totality_probe_as_it_was(order, ball, target), target


# --- the chain report ---------------------------------------------------------


def convex_chain_report_as_it_was(order, sample):
    spec = order.spec
    undecided = 0
    words = list(sample.words())
    depths = {}
    for w in words:
        depth, verdict = divergence_depth(order, w)
        if verdict is None:
            undecided += 1
        depths[w] = depth
    levels = []
    for d, pattern in zip(spec.separating_depths, _level_patterns(order)):
        members = [w for w in words if depths[w] >= d]
        outside = [w for w in words if depths[w] < d]
        violations = 0
        checked = 0
        if members:
            lo = hi = members[0]
            for w in members[1:]:
                if product_cmp(order, w, lo) == LESS:
                    lo = w
                if product_cmp(order, w, hi) == GREATER:
                    hi = w
            for g in outside:
                checked += 1
                try:
                    if product_cmp(order, lo, g) == LESS and product_cmp(order, g, hi) == LESS:
                        violations += 1
                except UndecidedComparisonError:
                    undecided += 1
        levels.append(ChainLevel(pattern, len(members), checked, violations))
    return ChainReport(tuple(levels), undecided)


@pytest.mark.parametrize(
    "name, n, length, cap",
    [
        ("dehornoy_4", 4, 3, 512),
        ("b4_b", 4, 3, 512),
        ("b6_cx", 6, 2, 512),
        ("mixed_4", 4, 2, 512),
        ("b4_c", 4, 3, 3),
        # the benchmark's chain jobs, and the deepest chain of the catalog
        ("b4_b", 4, 4, 512),
        ("b4_c", 4, 4, 512),
        ("dehornoy_4", 4, 4, 512),
        ("b4_a", 4, 4, 512),
        ("b6_cx", 6, 3, 512),
    ],
)
def test_chain_report_matches_the_dict_version(name, n, length, cap):
    order = dataclasses.replace(catalog_order(name), depth_cap=cap)
    ball = BallSpec(n, length)
    report = convex_chain_report(order, ball)
    assert report == convex_chain_report_as_it_was(order, ball)
    # only the stream leaves undecided words; b4_c's finite ray ignores cap 3
    assert (report.undecided_skipped > 0) == (name == "mixed_4")
    if cap != DEFAULT_DEPTH_CAP:
        assert report == convex_chain_report(catalog_order(name), ball)

