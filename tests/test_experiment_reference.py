"""The shared agreement scans against the per-member scans they replaced.

The references below are the earlier implementation, kept as it was: every
member of a conjugate family ran its own agreement scan, which signed each
ball word under both the member and the base, and fell back on the
just-past-the-ball candidates; every convex extension ran its own agreement
scan over the whole ball; the limit probe built each conjugate once per probe;
calibration listed the ball and its handle-reduction signs, and signed the
list under each candidate until a sign missed.
The conjugators and candidates were written out letter by letter, for j >= 0
and, in the limit probe, a one-letter u.  The library now walks the ball
once for a whole family (agreement_radii), calibration's candidates too, so
the base signs each ball word at most once per experiment; it compares
extensions with the base on the soul members only, builds the limit probe's
conjugates once, and builds every conjugator of both families as
sigma_s^-j u with one function.
Reports and rows must match field for field, and a base that raises
mid-scan must raise the same exception.
"""

import itertools
from types import SimpleNamespace

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    BallSpec,
    BraidWord,
    ConjugatedOrder,
    ConvexExtensionOrder,
    DehornoyOrder,
    FreeWord,
    GermConvention,
    MalformedInputError,
    NTOrder,
    UndecidedComparisonError,
    ZkIntegerSlope,
    agreement_radii,
    agreement_radius,
    calibrate_conventions,
    catalog_order,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    dehornoy_sign,
    is_trivial_braid,
    limit_probe_experiment,
    multiply,
    sigma,
    soul_lex_of_base,
    zk_membership,
    zk_sign,
)
from braidorders.experiments import (
    AgreementReport,
    ConjugateRow,
    ExtensionRow,
    ProbeRow,
    _conjugator,
    _stable_sign,
)
from braidorders.freewords import Custom
from braidorders.nt import GeodesicSpec

# --- reference: one agreement scan per member ----------------------------------


def ref_agreement_radius(o1, o2, ball):
    if o1.n != o2.n or ball.n != o1.n:
        raise MalformedInputError("strand counts differ")
    undecided = 0
    witness = None
    witness_signs = None
    radius = ball.max_length
    for w in ball.words():
        try:
            pair = o1.sign(w), o2.sign(w)
        except UndecidedComparisonError:
            undecided += 1
            continue
        if pair[0] != pair[1]:
            witness = w
            witness_signs = pair
            radius = len(w) - 1
            break
    return AgreementReport(radius, witness, witness_signs, undecided)


def ref_find_disagreement(o1, o2, candidates):
    for w in candidates:
        try:
            s1, s2 = o1.sign(w), o2.sign(w)
        except UndecidedComparisonError:
            continue
        if s1 != s2:
            return w, s1, s2
    return None


def ref_witness_candidates(s, u, j):
    """The words s^-(j+c) u s^(j+c-1) for c = 1..6, just past the ball."""
    return [BraidWord(u.n, (-s,) * (j + c) + u.letters + (s,) * (j + c - 1)) for c in range(1, 7)]


def ref_limit_conjugator(n, s, u, N):
    """s^-N u for a one-letter u, the only u the limit probe read."""
    (letter,) = u.letters
    return BraidWord(n, (-s,) * N + (letter,))


def ref_conjugates(base, pattern, j_range, ball):
    s, u = pattern
    if not 1 <= s <= base.n - 1:
        raise MalformedInputError(f"generator index {s} out of range for B_{base.n}")
    pairs = [(j, BraidWord(base.n, (-s,) * j + u.letters)) for j in j_range]
    rows = []
    for j, h in pairs:
        conj = ConjugatedOrder(base, h)
        rep = ref_agreement_radius(conj, base, ball)
        witness, signs = rep.witness, rep.witness_signs
        if witness is None:
            found = ref_find_disagreement(conj, base, ref_witness_candidates(s, u, j))
            if found is not None:
                witness, s1, s2 = found
                signs = (s1, s2)
        rows.append(ConjugateRow(j, h, rep.radius, witness, signs, rep.undecided_count))
    return tuple(rows)


def ref_soul_witness(base, slope):
    """A soul element of the base on which the slope and its tie break, the
    base's lex priority (soul_lex_of_base), disagree, with its exponent
    vector: an axis against a large multiple of a lower-priority axis."""
    lex, weights = slope.tie_break, slope.weights
    soul = base.spec.soul_generators
    k = len(soul)
    for hi_pos in range(k):
        for lo_pos in range(k):
            if lex.axes.index(hi_pos) >= lex.axes.index(lo_pos):
                continue
            # lex says +1 for e_hi - t e_lo with any t; slope flips at large t
            t = weights[hi_pos] // max(1, weights[lo_pos]) + 1
            v = [0] * k
            v[hi_pos] = 1
            v[lo_pos] = -t
            if zk_sign(slope, v) != zk_sign(lex, v):
                letters = (soul[hi_pos],) + (-soul[lo_pos],) * t
                return BraidWord(base.n, letters), tuple(v)
    return None


def ref_extensions(base, m_range, ball):
    soul = sorted(base.spec.soul_generators)
    k = len(soul)
    if base.spec.type_tag != "finite" or k < 2:
        raise MalformedInputError("extension experiment needs finite type with soul rank >= 2")
    lex = soul_lex_of_base(base)
    rows = []
    for M in m_range:
        if M < 2:
            raise MalformedInputError("slope parameter M must be >= 2")
        weights = [0] * k
        for rank, pos in enumerate(lex.axes):
            weights[pos] = M ** (k - 1 - rank)
        slope = ZkIntegerSlope(tuple(weights), lex)
        extension = ConvexExtensionOrder(base, slope)
        rep = ref_agreement_radius(extension, base, ball)
        witness, signs, vector = rep.witness, rep.witness_signs, None
        if witness is not None:
            vector = zk_membership(witness, soul)
        else:
            found = ref_soul_witness(base, slope)
            if found is not None:
                witness, vector = found
                signs = (extension.sign(witness), base.sign(witness))
        # a finite-type base decides every sign, so the CLI writes its 0
        assert rep.undecided_count == 0
        rows.append(ExtensionRow(M, tuple(weights), rep.radius, witness, signs, vector))
    return tuple(rows)


def ref_limit_probe(base, pattern, n_range, probe_ball):
    s, u = pattern
    soul = sorted(base.spec.soul_generators)
    probes = []
    seen = set()
    for i in soul:
        for j in soul:
            if i != j:
                probes.append(BraidWord(base.n, (i, -j)))
    probes.extend(w for w in probe_ball.words() if w.letters)
    unique_probes = []
    for p in probes:
        if p.letters not in seen:
            seen.add(p.letters)
            unique_probes.append(p)
    rows = []
    for probe in unique_probes:
        base_sign = base.sign(probe)
        signs = []
        for N in n_range:
            signs.append(ConjugatedOrder(base, ref_limit_conjugator(base.n, s, u, N)).sign(probe))
        rows.append(ProbeRow(probe, base_sign, tuple(signs), _stable_sign(signs)))
    return tuple(rows)


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def assert_same_conjugates(base, pattern, j_range, ball):
    new = outcome(converge_conjugates_experiment, base, pattern, j_range, ball)
    ref = outcome(ref_conjugates, base, pattern, j_range, ball)
    assert new == ref
    return new


# --- conjugates ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, pattern, j_range, length",
    [
        ("dehornoy_3", (2, (1,)), range(1, 7), 4),
        ("dehornoy_4", (3, (2,)), range(0, 6), 3),
    ],
)
def test_conjugates_match_reference_finite(name, pattern, j_range, length):
    base = catalog_order(name)
    s, u = pattern
    rows = assert_same_conjugates(base, (s, BraidWord(base.n, u)), j_range, BallSpec(base.n, length))
    # both the in-ball witness and the just-past-the-ball fallback are exercised
    assert any(r.radius < length for r in rows)
    assert any(r.radius == length and r.witness is not None for r in rows)


@pytest.mark.parametrize(
    "name, length, conjugators",
    [("sturmian_3", 3, [(1, 2), (-2,), (2, 2, -1)]), ("mixed_4", 4, [(), (1,), ()])],
)
@pytest.mark.parametrize("depth_cap", [8, 16])
def test_conjugates_match_reference_undecided(name, length, conjugators, depth_cap):
    base = NTOrder(catalog_order(name).spec, depth_cap=depth_cap)
    n = base.n
    ball = BallSpec(n, length)
    rows = assert_same_conjugates(base, (2, BraidWord(n, (2,))), range(1, 4), ball)
    assert any(r.undecided_count for r in rows)
    # a list of conjugators runs as one agreement scan per conjugator
    orders = [ConjugatedOrder(base, BraidWord(n, h)) for h in conjugators]
    listed = [agreement_radius(conj, base, ball) for conj in orders]
    assert listed == [ref_agreement_radius(conj, base, ball) for conj in orders]
    assert agreement_radii(base, orders, ball) == tuple(listed)
    assert any(r.undecided_count for r in listed)


def test_agreement_radius_matches_reference():
    cases = [
        (DehornoyOrder(3), ConjugatedOrder(DehornoyOrder(3), BraidWord(3, (-2, 1))), BallSpec(3, 4)),
        (catalog_order("dehornoy_3"), DehornoyOrder(3), BallSpec(3, 5)),
        (
            NTOrder(catalog_order("sturmian_3").spec, depth_cap=8),
            NTOrder(catalog_order("sturmian_3").spec, depth_cap=16),
            BallSpec(3, 3),
        ),
        (DehornoyOrder(3), DehornoyOrder(4), BallSpec(3, 2)),
        (DehornoyOrder(4), DehornoyOrder(4), BallSpec(3, 2)),
    ]
    for o1, o2, ball in cases:
        assert outcome(agreement_radius, o1, o2, ball) == outcome(ref_agreement_radius, o1, o2, ball)


def test_base_that_raises_mid_scan():
    # the first 64 letters of the mixed_4 ray: the shorter ball words sign,
    # and the trivial commutator [sigma_1, sigma_3] reads past the end
    letters = tuple(itertools.islice(catalog_order("mixed_4").spec.word, 64))
    spec = GeodesicSpec(
        "short", Custom(4, lambda: iter(letters), label="short"), (1,)
    )
    base = NTOrder(spec, FROZEN_CONVENTION)
    ball = BallSpec(4, 4)
    raised = (MalformedInputError, "custom stream 'short' ran out of letters")
    assert base.sign(BraidWord(4, (1, 3))) in (-1, 1)
    assert outcome(base.sign, BraidWord(4, (1, 3, -1, -3))) == raised
    assert assert_same_conjugates(base, (2, BraidWord(4, (2,))), range(1, 4), ball) == raised
    # members that sign as the whole ray's order, except on the trivial
    # braids: one decides them, so the base is asked and raises; the other is
    # undecided on them, so the base is never asked there
    full = catalog_order("mixed_4")

    def member(trivial_undecided):
        def sign(w):
            if not is_trivial_braid(w):
                return full.sign(w)
            if trivial_undecided:
                raise UndecidedComparisonError(full.depth_cap)
            return 0

        return SimpleNamespace(n=4, sign=sign)

    assert outcome(agreement_radius, member(False), base, ball) == raised
    assert outcome(ref_agreement_radius, member(False), base, ball) == raised
    report = agreement_radius(member(True), base, ball)
    assert report == ref_agreement_radius(member(True), base, ball)
    # undecided: the empty word and the eight commutators of sigma_1, sigma_3
    assert (report.radius, report.undecided_count) == (4, 9)


# --- extensions -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, m_range, length, in_ball",
    [
        # M = 2 has an in-ball witness of length 4; every other M falls
        # back on the soul witness past the ball
        ("b4_b", range(2, 6), 4, 1),
        # M = 3 reads the whole ball; the second M = 2 reads it again
        ("b4_b", [2, 3, 2], 4, 2),
        ("b4_c", range(2, 6), 3, 0),
        ("b6_cx", range(2, 9), 3, 0),
        # the empty ball has no witness, so every row takes the soul witness
        ("b4_b", range(2, 21), 0, 0),
        ("b4_c", range(2, 21), 0, 0),
        ("b6_cx", range(2, 21), 0, 0),
    ],
)
def test_extensions_match_reference(name, m_range, length, in_ball):
    base = catalog_order(name)
    ball = BallSpec(base.n, length)
    new = outcome(converge_extensions_experiment, base, m_range, ball)
    assert new == outcome(ref_extensions, base, m_range, ball)
    assert sum(r.radius < length for r in new) == in_ball
    assert all(r.witness is not None for r in new)


def test_extensions_reject_like_reference():
    base = catalog_order("b4_b")
    for m_range, ball in (([1], BallSpec(4, 2)), ([2, 1], BallSpec(4, 2)), ([2], BallSpec(3, 2))):
        assert outcome(converge_extensions_experiment, base, m_range, ball) == outcome(
            ref_extensions, base, m_range, ball
        )
    # the checks come before the loop: a wrong ball raises with no M to scan,
    # where the reference returns no rows
    assert outcome(ref_extensions, base, [], BallSpec(3, 2)) == ()
    assert outcome(converge_extensions_experiment, base, [], BallSpec(3, 2)) == (
        MalformedInputError,
        "strand counts differ",
    )


# --- limit probe ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, pattern, depth_cap",
    [("dehornoy_3", (2, 1), 512), ("b6_cx", (3, 4), 512), ("sturmian_3", (2, 1), 8), ("b6_cx", (3, 3), 512)],
)
def test_limit_probe_matches_reference(name, pattern, depth_cap):
    # N from 0: the signs at N = 0 differ from the later ones on some probes;
    # u = sigma_3 cancels the whole of sigma_3^-1 at N = 1
    base = NTOrder(catalog_order(name).spec, depth_cap=depth_cap)
    ball = BallSpec(base.n, 2)
    pattern = (pattern[0], BraidWord(base.n, (pattern[1],)))
    new = outcome(limit_probe_experiment, base, pattern, range(0, 6), ball)
    assert new == outcome(ref_limit_probe, base, pattern, range(0, 6), ball)


# --- one builder for both conjugate families -----------------------------------


@pytest.mark.parametrize("n, s, u", [(3, 2, (1,)), (3, 2, (2, 1)), (4, 3, (2,)), (4, 1, (3, -1)), (6, 3, (4,))])
def test_conjugator_matches_the_hand_built_letters(n, s, u):
    # u = sigma_2 sigma_1 cancels against sigma_2^-j on its left, and
    # u = sigma_3 sigma_1^-1 against the candidates' sigma_1^(j+c-1) on its right
    u = BraidWord(n, u)
    pattern = (s, u)
    for j in range(7):
        assert _conjugator(n, pattern, j) == BraidWord(n, (-s,) * j + u.letters), j
        candidates = [multiply(_conjugator(n, pattern, j + c), sigma(n, s, j + c - 1)) for c in range(1, 7)]
        assert candidates == ref_witness_candidates(s, u, j), j
        if len(u) == 1:
            assert _conjugator(n, pattern, j) == ref_limit_conjugator(n, s, u, j), j


@pytest.mark.parametrize("name, s, u", [("dehornoy_3", 2, (2, 1)), ("dehornoy_3", 1, (2, -1)), ("b4_b", 3, (1, 3))])
def test_conjugates_match_reference_with_a_longer_u(name, s, u):
    base = catalog_order(name)
    rows = assert_same_conjugates(base, (s, BraidWord(base.n, u)), range(0, 7), BallSpec(base.n, 3))
    assert [r.j for r in rows] == list(range(7))


# --- one walk for a family --------------------------------------------------------


def ref_calibration_matches(n, max_length):
    ball = list(BallSpec(n, max_length).words())
    targets = [dehornoy_sign(w) for w in ball]
    matches = []
    for signs in itertools.product((-1, 1), repeat=n - 1):
        word = FreeWord(n, tuple(s * i for i, s in zip(range(1, n), signs)))
        spec = GeodesicSpec("calibration", word, tuple(range(1, n)), (n - 1,))
        for rev, mir, flip in itertools.product((False, True), repeat=3):
            conv = GermConvention(rev, mir, flip)
            order = NTOrder(spec, conv)
            if all(order.sign(w) == t for w, t in zip(ball, targets)):
                matches.append((word, conv))
    return tuple(matches)


@pytest.mark.parametrize("n, lengths", [(3, range(2, 7)), (4, range(2, 5))])
def test_calibration_matches_reference(n, lengths):
    for length in lengths:
        assert calibrate_conventions(n, length).matches == ref_calibration_matches(n, length), length


def test_calibration_signs_each_ball_word_once(monkeypatch):
    # matches survive the whole ball, so the base signs every word, once
    signed = []

    def counted(w):
        signed.append(w)
        return dehornoy_sign(w)

    monkeypatch.setattr("braidorders.orders.dehornoy_sign", counted)
    calibrate_conventions(3, 4)
    assert signed == list(BallSpec(3, 4).words())


@pytest.mark.parametrize(
    "name, length, j_range, base_signs",
    [("dehornoy_3", 5, range(1, 5), 8), ("sturmian_3", 4, range(1, 7), 165), ("mixed_4", 3, range(1, 5), 10)],
)
def test_base_signs_each_ball_word_at_most_once(monkeypatch, name, length, j_range, base_signs):
    # the base's own signs: a conjugate of a ray order signs as the order of
    # the moved ray, another NTOrder
    base = catalog_order(name)
    ball = BallSpec(base.n, length)
    pattern = (1, BraidWord(base.n, (2,)))
    signed = []
    sign = NTOrder.sign

    def counted(self, w):
        if self is base:
            signed.append(w)
        return sign(self, w)

    monkeypatch.setattr(NTOrder, "sign", counted)
    rows = converge_conjugates_experiment(base, pattern, j_range, ball)
    assert len(signed) == base_signs
    words = set(ball.words())
    in_ball = [w for w in signed if w in words]
    assert len(in_ball) == len(set(in_ball))
    monkeypatch.undo()
    assert rows == ref_conjugates(base, pattern, j_range, ball)


def test_an_empty_family_signs_nothing():
    def sign(w):
        raise AssertionError("the base signed a word")

    assert agreement_radii(SimpleNamespace(n=3, sign=sign), [], BallSpec(3, 4)) == ()


def test_the_earliest_ball_word_raises():
    # the first member raises on a later word than the second: the one walk
    # meets the second member's word first, where one scan per member raised
    # the first member's error
    ball = BallSpec(3, 3)
    words = list(ball.words())
    late, early = words[10], words[5]

    def member(bad):
        def sign(w):
            if w == bad:
                raise MalformedInputError(f"cannot sign {w}")
            return dehornoy_sign(w)

        return SimpleNamespace(n=3, sign=sign)

    members = [member(late), member(early)]
    assert outcome(agreement_radii, DehornoyOrder(3), members, ball) == (MalformedInputError, f"cannot sign {early}")
    assert outcome(ref_agreement_radius, members[0], DehornoyOrder(3), ball) == (
        MalformedInputError,
        f"cannot sign {late}",
    )
