from dataclasses import replace

import pytest

from braidorders import (
    BallSpec,
    BraidWord,
    ConjugatedOrder,
    DehornoyOrder,
    MalformedInputError,
    NTOrder,
    SearchFailureError,
    agreement_radii,
    agreement_radius,
    catalog_order,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    divergence_depth,
    limit_probe_experiment,
    small_positive_search,
)


def test_agreement_identical_oracles():
    base = DehornoyOrder(3)
    report = agreement_radius(base, base, BallSpec(3, 4))
    # no witness: the distance 2^-radius is 0 on the ball
    assert report.radius == 4 and report.witness is None


def test_agreement_cross_oracle(specs):
    report = agreement_radius(DehornoyOrder(3), catalog_order("dehornoy_3"), BallSpec(3, 5))
    assert report.radius == 5 and report.witness is None


def test_agreement_witness_is_first_in_ball_order():
    base = DehornoyOrder(3)
    other = ConjugatedOrder(base, BraidWord(3, (-2, 1)))
    report = agreement_radius(base, other, BallSpec(3, 4))
    assert report.witness is not None
    for w in BallSpec(3, 4).words():
        if w == report.witness:
            break
        assert base.sign(w) == other.sign(w)


def test_distance_monotone_in_conjugator(specs):
    # the distance 2^-radius (0 without a witness, at radius max_length)
    # shrinks as the radius grows
    base = DehornoyOrder(3)
    ball = BallSpec(3, 5)
    radii = []
    for j in (1, 3, 5, 7):
        conj = ConjugatedOrder(base, BraidWord(3, (-2,) * j + (1,)))
        report = agreement_radius(base, conj, ball)
        assert (report.witness is None) == (report.radius == ball.max_length)
        radii.append(report.radius)
    assert radii == sorted(radii)
    assert radii[0] >= 1


def test_conjugates_experiment_dehornoy3(specs, conv):
    rows = converge_conjugates_experiment(
        NTOrder(specs["dehornoy_3"], conv), (2, BraidWord(3, (1,))), range(1, 9), BallSpec(3, 6)
    )
    radii = [r.radius for r in rows]
    assert any(radius >= 6 for radius in radii)
    assert all(r.witness is not None for r in rows)
    assert all(a <= b for a, b in zip(radii, radii[1:]))
    assert radii[-1] == 6


def test_conjugates_experiment_dehornoy4(specs, conv):
    rows = converge_conjugates_experiment(
        NTOrder(specs["dehornoy_4"], conv), (3, BraidWord(4, (2,))), range(1, 7), BallSpec(4, 4)
    )
    radii = [r.radius for r in rows]
    assert any(radius >= 4 for radius in radii) and all(r.witness is not None for r in rows)
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_conjugates_experiment_infinite_type(specs, conv):
    # trivial soul: the conjugators are the first nonempty B_3 L4 words at
    # each divergence depth; the deeper a conjugator diverges, the closer its
    # conjugate order is to the base, so the radii grow with the depth
    base = NTOrder(specs["sturmian_3"], conv)
    by_depth = {}
    for w in BallSpec(3, 4).words():
        depth, verdict = divergence_depth(base, w)
        if w.letters and verdict is not None:
            by_depth.setdefault(depth, w)
    ball = BallSpec(3, 5)
    reports = [agreement_radius(ConjugatedOrder(base, by_depth[d]), base, ball) for d in sorted(by_depth)]
    radii = [r.radius for r in reports]
    assert radii == sorted(radii) and len(set(radii)) >= 3, radii
    assert all(r.undecided_count == 0 for r in reports)


@pytest.mark.parametrize(
    "name, pattern, length, radii",
    [
        ("sturmian_3", (1, (2,)), 4, [2, 3, 4, 4, 4, 4]),
        ("sturmian_4", (1, (2,)), 3, [2, 3, 3, 3, 3, 3]),
        ("sturmian_6", (1, (2,)), 3, [2, 3, 3, 3, 3, 3]),
        ("dehornoy_3", (2, (1,)), 5, [2, 3, 4, 5, 5, 5]),
        ("dehornoy_4", (3, (2,)), 4, [2, 3, 4, 4, 4, 4]),
        ("dehornoy_5", (4, (3,)), 3, [2, 3, 3, 3, 3, 3]),
        ("dehornoy_6", (5, (4,)), 3, [2, 3, 3, 3, 3, 3]),
        ("b4_a", (3, (2,)), 4, [2, 3, 4, 4, 4, 4]),
        ("b4_b", (1, (2,)), 4, [2, 3, 4, 4, 4, 4]),
        ("b4_c", (3, (-2,)), 4, [1, 1, 2, 3, 3, 3]),
        ("b4_c", (3, (-1, -2)), 4, [1, 2, 3, 3, 3, 3]),
    ],
)
def test_orders_are_limits_of_their_conjugates(name, pattern, length, radii):
    # the paper: a large class of orderings, every one of infinite type
    # among them, is approximated by its own conjugates.  On these balls, by
    # sigma_s^-j u, the radius rises with j to the ball's bound (b4_c's to
    # one below it), and a witness keeps every conjugate distinct.  b6_cx
    # and mixed_4 stay at radius 1 on every short family tried, so they are
    # left out; so are the streams' larger balls, which hold undecided words
    base = catalog_order(name)
    ball = BallSpec(base.n, length)
    s, u = pattern
    rows = converge_conjugates_experiment(base, (s, BraidWord(base.n, u)), range(1, 7), ball)
    assert [r.radius for r in rows] == radii
    for r in rows:
        assert r.undecided_count == 0
        signs = (ConjugatedOrder(base, r.conjugator).sign(r.witness), base.sign(r.witness))
        assert r.witness_signs == signs and signs[0] != signs[1], r.j


def _short_families(n):
    """(s, u) for sigma_s^-j u with u empty or one letter other than sigma_s^+-1."""
    letters = [k for i in range(1, n) for k in (i, -i)]
    return [(s, u) for s in range(1, n) for u in [()] + [(k,) for k in letters if abs(k) != s]]


@pytest.mark.parametrize(
    "name, length, families, largest",
    [("b6_cx", 2, 30, [1, 1, 1, 1, 1, 1]), ("mixed_4", 4, 15, [2, 1, 1, 1, 1, 1])],
)
def test_short_conjugate_families_stay_at_radius_1(name, length, families, largest):
    """Evidence, not the paper's claim: over every family sigma_s^-j u with
    u empty or one letter, j = 1..6, that has a witness on every row, the
    largest radius of each j stays at 1 from j = 2 on.  b6_cx is the
    ordering the paper suggests may not be a limit of its conjugates;
    mixed_4 is typed infinite, and every ordering of infinite type is such a
    limit, so whether its type tag (or the family) matches the paper is
    still open."""
    base = catalog_order(name)
    ball = BallSpec(base.n, length)
    radii = []
    for s, u in _short_families(base.n):
        rows = converge_conjugates_experiment(base, (s, BraidWord(base.n, u)), range(1, 7), ball)
        if all(r.witness is not None for r in rows):
            radii.append([r.radius for r in rows])
    assert len(radii) == families
    assert [max(column) for column in zip(*radii)] == largest


def test_conjugates_experiment_checks_u_before_scanning(monkeypatch, specs, conv):
    def no_scan(*args):
        raise AssertionError("the ball was read before u was checked")

    monkeypatch.setattr("braidorders.experiments.agreement_radii", no_scan)
    base = NTOrder(specs["dehornoy_3"], conv)
    with pytest.raises(MalformedInputError, match="strand counts differ: 3 vs 6"):
        converge_conjugates_experiment(base, (2, BraidWord(6, (1,))), range(1, 4), BallSpec(3, 3))


def test_conjugator_rows_for_negative_j(specs, conv):
    # sigma_s^-j u for every j: a negative j conjugates by sigma_s^|j| u
    base = NTOrder(specs["dehornoy_3"], conv)
    rows = converge_conjugates_experiment(base, (2, BraidWord(3, (1,))), range(-3, 4), BallSpec(3, 3))
    for row in rows:
        power = (2,) * -row.j if row.j < 0 else (-2,) * row.j
        assert row.conjugator == BraidWord(3, power + (1,)), row.j
    assert [str(r.conjugator) for r in rows[1:3]] == ["2 2 1", "2 1"]


def rewritten_u_rows():
    """One family written two ways: sigma_2^-j (sigma_2 sigma_1) for j = 4..6
    and sigma_2^-j sigma_1 for j = 3..5."""
    base, ball = catalog_order("dehornoy_3"), BallSpec(3, 4)
    cancelling = converge_conjugates_experiment(base, (2, BraidWord(3, (2, 1))), range(4, 7), ball)
    plain = converge_conjugates_experiment(base, (2, BraidWord(3, (1,))), range(3, 6), ball)
    return cancelling, plain


def test_rewritten_u_gives_the_same_conjugators():
    cancelling, plain = rewritten_u_rows()
    assert [r.conjugator for r in cancelling] == [r.conjugator for r in plain]
    assert [r.radius for r in cancelling] == [r.radius for r in plain]
    assert all(r.witness is not None for r in plain)


@pytest.mark.xfail(
    strict=True,
    reason="the fallback witnesses sigma_s^-(j+c) u sigma_s^(j+c-1) shift when the first letters "
    "of u cancel, so they depend on how u is written",
)
def test_rewritten_u_gives_the_same_witnesses():
    cancelling, plain = rewritten_u_rows()
    assert [r.witness for r in cancelling] == [r.witness for r in plain]


class UnreadBall(BallSpec):
    """A ball that fails when its words are read."""

    def words(self):
        raise AssertionError("a ball word was read before the pattern was checked")


BAD_PATTERNS = [
    ((-3, (4,)), "generator index -3 out of range for B_6"),
    ((0, (4,)), "generator index 0 out of range for B_6"),
    ((6, (4,)), "generator index 6 out of range for B_6"),
    ((3, None), "strand counts differ: 6 vs 3"),
]


@pytest.mark.parametrize("pattern, message", BAD_PATTERNS)
@pytest.mark.parametrize("experiment", [converge_conjugates_experiment, limit_probe_experiment])
@pytest.mark.parametrize("window", [range(1, 4), range(0)])
def test_bad_patterns_raise_before_any_ball_word(experiment, pattern, message, window):
    s, u = pattern
    u = BraidWord(3, (1,)) if u is None else BraidWord(6, u)
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        experiment(catalog_order("b6_cx"), (s, u), window, UnreadBall(6, 2))


@pytest.mark.parametrize(
    "experiment",
    [
        lambda base, ball: agreement_radii(base, [], ball),
        lambda base, ball: converge_conjugates_experiment(base, (2, BraidWord(3, (1,))), [], ball),
    ],
)
def test_an_empty_family_checks_the_ball_rank(experiment):
    # with no member to compare, the ball's rank is still checked against
    # the base's, as the extension experiment and the limit probe check it
    with pytest.raises(MalformedInputError, match="^strand counts differ$"):
        experiment(catalog_order("dehornoy_3"), BallSpec(4, 2))


def test_extensions_experiment_b6(specs):
    rows = converge_extensions_experiment(
        catalog_order("b6_cx"), range(2, 13), BallSpec(6, 3)
    )
    assert all(a.radius <= b.radius for a, b in zip(rows, rows[1:]))
    for row in rows:
        assert row.witness is not None
        assert row.witness_signs[0] != row.witness_signs[1]
        assert row.soul_witness_vector is not None
    assert rows[0].weights == (4, 2, 1)


def test_extensions_experiment_rejects_rank_one(specs, conv):
    with pytest.raises(MalformedInputError):
        converge_extensions_experiment(
            NTOrder(specs["dehornoy_3"], conv), range(2, 4), BallSpec(3, 3)
        )


def test_extensions_experiment_rejects_a_stream_ray(specs):
    # the soul-only comparison needs every base sign decided: a finite ray
    base = catalog_order("b4_b")
    stream = replace(base.spec, word=specs["sturmian_4"].word)
    with pytest.raises(MalformedInputError):
        converge_extensions_experiment(replace(base, spec=stream), range(2, 4), BallSpec(4, 2))


def test_extensions_experiment_rejects_a_bad_m_before_scanning(monkeypatch):
    # the empty-range ball check is in test_experiment_reference
    def no_scan(*args):
        raise AssertionError("the ball was read before M was checked")

    monkeypatch.setattr("braidorders.experiments.zk_membership", no_scan)
    with pytest.raises(MalformedInputError, match="slope parameter M must be >= 2"):
        converge_extensions_experiment(catalog_order("b4_b"), [2, 3, 1], BallSpec(4, 2))


def test_limit_probe_b6(specs):
    rows = limit_probe_experiment(
        catalog_order("b6_cx"), (3, BraidWord(6, (4,))), range(1, 13), BallSpec(6, 2)
    )
    differing = [r for r in rows if r.differs]
    assert len(differing) >= 1
    # soul-central probes are untouched by the conjugators
    for row in rows:
        if row.probe.letters in ((1,), (-1,)):
            assert row.stable_sign == row.base_sign
    assert all(len(row.signs) == 12 for row in rows)


def test_limit_probe_short_window_inconclusive(specs):
    rows = limit_probe_experiment(
        catalog_order("b6_cx"), (3, BraidWord(6, (4,))), range(1, 2), BallSpec(6, 1)
    )
    assert all(len(row.signs) == 1 for row in rows)
    assert all(row.stable_sign is None for row in rows)


def test_small_positive_search_examples(specs):
    found = small_positive_search(DehornoyOrder(3), [2], BallSpec(3, 3))
    assert DehornoyOrder(3).sign(found) == 1
    # at or below sigma1 in the ordering
    from braidorders import order_cmp

    assert order_cmp(DehornoyOrder(3), found, BraidWord(3, (1,))) <= 0
    sturm = catalog_order("sturmian_3")
    smallest = small_positive_search(sturm, [], BallSpec(3, 2))
    assert sturm.sign(smallest) == 1
    with pytest.raises(SearchFailureError):
        small_positive_search(DehornoyOrder(3), [2], BallSpec(3, 0))
