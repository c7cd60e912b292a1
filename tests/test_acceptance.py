"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (integer computation, no tolerances); the stated wall
clock budgets are asserted as hard bounds.
"""

import itertools
import random
import time

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    BallSpec,
    BraidWord,
    ConjugatedOrder,
    ConvexExtensionOrder,
    DehornoyOrder,
    EventuallyPeriodic,
    FreeWord,
    NTOrder,
    UndecidedComparisonError,
    agreement_radius,
    catalog,
    catalog_order,
    conrad_witness_search,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    convex_chain_report,
    dehornoy_sign,
    invert,
    is_trivial_braid,
    limit_probe_experiment,
    multiply,
    soul_lex_of_base,
    soul_of,
    totality_probe,
)
from braidorders.nt import GeodesicSpec
from braidorders.planar import divergence

from artin_reference import apply_map, artin_map_of
from test_freewords import random_free_word
from words import random_word


def _report(number: int, budget: float, started: float, detail: str):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s / {budget:.0f}s) {detail}")


def test_criterion_1_cross_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for n, L in ((3, 6), (4, 4)):
        order = catalog_order(f"dehornoy_{n}")
        for w in BallSpec(n, L).words():
            assert order.sign(w) == dehornoy_sign(w), w
            checked += 1
    _report(1, 60, started, f"ray order == handle reduction on {checked} words")


def test_criterion_2_example_one():
    started = time.monotonic()
    for k in range(0, 51):
        assert dehornoy_sign(BraidWord(3, (-1, -2) + (1,) * (k + 1))) == -1
    assert dehornoy_sign(BraidWord(3, (-2, 1))) == 1
    assert dehornoy_sign(BraidWord(3, (1,))) == 1
    _report(2, 1, started, "s1^-1 s2^-1 s1^(k+1) negative for k <= 50; s2^-1 s1, s1 positive")


def test_criterion_3_example_two():
    started = time.monotonic()
    for name in ("b4_b", "b4_c"):
        order = catalog_order(name)
        for k in range(0, 31):
            assert order.sign(BraidWord(4, (3, 2) + (-3,) * (k + 1))) == 1
    _report(3, 10, started, "s3 s2 s3^-(k+1) positive for k <= 30 under b4_b and b4_c")


def test_criterion_4_conjugate_agreement_and_distinctness():
    started = time.monotonic()
    base = DehornoyOrder(3)
    for L in range(1, 7):
        ball = BallSpec(3, L)
        for j in range(L + 2, 11):
            conj = ConjugatedOrder(base, BraidWord(3, (-2,) * j + (1,)))
            report = agreement_radius(conj, base, ball)
            assert report.radius >= L, (L, j, report)
    witnesses = {}
    for j in range(1, 11):
        conj = ConjugatedOrder(base, BraidWord(3, (-2,) * j + (1,)))
        found = None
        for c in range(1, 5):
            w = BraidWord(3, (-2,) * (j + c) + (1,) + (2,) * (j + c - 1))
            if conj.sign(w) != base.sign(w):
                found = w
                break
        assert found is not None, j
        assert len(found) <= 2 * j + 4
        witnesses[j] = found
    _report(4, 300, started, f"radii >= L for j >= L+2; witnesses for j=1..10 of length <= 2j+4")


def test_criterion_5_souls_and_conradian_failure():
    started = time.monotonic()
    specs = catalog()
    expected = {
        "dehornoy_3": (2,), "dehornoy_4": (3,), "dehornoy_5": (4,), "dehornoy_6": (5,),
        "b4_a": (3,), "b4_b": (1, 3), "b4_c": (1, 3), "b6_cx": (1, 3, 5),
        "sturmian_3": (), "sturmian_4": (), "sturmian_5": (), "sturmian_6": (),
    }
    for name, soul in expected.items():
        spec = specs[name]
        conv = FROZEN_CONVENTION
        assert soul_of(NTOrder(spec, conv)) == soul, name
    assert soul_of(NTOrder(specs["mixed_4"], FROZEN_CONVENTION)) == ()

    pairs = {
        "dehornoy_3": ((-2, 1), (1,)),
        "dehornoy_4": ((-2, 1), (1,)),
        "dehornoy_5": ((-2, 1), (1,)),
        "dehornoy_6": ((-2, 1), (1,)),
        "b4_a": ((-2, 1), (1,)),
        "b4_b": ((-3, 2), (2,)),
        "b4_c": ((-3, 2), (2,)),
        "b6_cx": ((-3, 4), (4,)),
    }
    for name, (f_letters, g_letters) in pairs.items():
        order = catalog_order(name)
        hint = [(BraidWord(order.n, f_letters), BraidWord(order.n, g_letters))]
        witness = conrad_witness_search(order, 20, BallSpec(order.n, 2), priority_pairs=hint)
        assert order.sign(witness.f) == 1 and order.sign(witness.g) == 1

    # no Conradian failure inside the abelian soul: f g > g at k = 1 already
    rng = random.Random(5)
    order = catalog_order("b6_cx")
    soul = sorted(order.spec.soul_generators)
    checked = 0
    while checked < 500:
        f_letters = tuple(i for i in soul for _ in range(rng.randrange(0, 3)))
        g_letters = tuple(i for i in soul for _ in range(rng.randrange(0, 3)))
        if not f_letters or not g_letters:
            continue
        f, g = BraidWord(6, f_letters), BraidWord(6, g_letters)
        assert order.sign(multiply(invert(g), multiply(f, g))) > 0
        checked += 1
    _report(5, 300, started, "souls validated; witnesses on all finite entries; soul is Conradian")


def test_criterion_6_convex_chain_shape():
    started = time.monotonic()
    specs = catalog()
    conv = FROZEN_CONVENTION
    report = convex_chain_report(NTOrder(specs["dehornoy_4"], conv), BallSpec(4, 4))
    patterns = [lv.generator_pattern for lv in report.levels]
    assert patterns == [(2, 3), (3,), ()]
    assert all(a > b for a, b in zip(map(set, patterns), map(set, patterns[1:]))), "strict nesting"
    assert [lv.violations for lv in report.levels] == [0, 0, 0]
    seen = set()
    for name in ("b4_a", "b4_b", "b4_c"):
        rep = convex_chain_report(NTOrder(specs[name], conv), BallSpec(4, 3))
        assert all(lv.violations == 0 for lv in rep.levels)
        seen.add(tuple(lv.generator_pattern for lv in rep.levels))
    assert len(seen) == 3
    _report(6, 300, started, "dehornoy_4 chain strictly nested, zero violations; b4 classes distinct")


def test_criterion_7_totality_probe():
    started = time.monotonic()
    specs = catalog()
    conv = FROZEN_CONVENTION
    report = totality_probe(NTOrder(specs["sturmian_3"], conv), BallSpec(3, 5), 20)
    assert not report.tie_words
    assert report.records[-1][0] >= 20
    control = GeodesicSpec("control", EventuallyPeriodic(FreeWord(3, (1,)), FreeWord(3, (2, 1))))
    control_report = totality_probe(NTOrder(control, conv), BallSpec(3, 3), 5)
    assert control_report.tie_words
    _report(7, 300, started, "zero ties at L=5; small elements to depth 20; control degenerates")


def test_criterion_8_not_isolated():
    started = time.monotonic()
    specs = catalog()
    ext = converge_extensions_experiment(
        NTOrder(specs["b6_cx"], FROZEN_CONVENTION), range(2, 13), BallSpec(6, 3)
    )
    assert all(a.radius <= b.radius for a, b in zip(ext, ext[1:]))
    assert all(r.witness is not None for r in ext)
    conj3 = converge_conjugates_experiment(
        NTOrder(specs["dehornoy_3"], FROZEN_CONVENTION), (2, BraidWord(3, (1,))), range(1, 9), BallSpec(3, 6)
    )
    assert any(r.radius >= 6 for r in conj3) and all(r.witness is not None for r in conj3)
    conj4 = converge_conjugates_experiment(
        NTOrder(specs["dehornoy_4"], FROZEN_CONVENTION), (3, BraidWord(4, (2,))), range(1, 8), BallSpec(4, 4)
    )
    assert any(r.radius >= 4 for r in conj4) and all(r.witness is not None for r in conj4)
    _report(8, 600, started, "extension radii nondecreasing with witnesses; conjugate radii reach ball bounds")


def test_criterion_9_limit_probe():
    started = time.monotonic()
    specs = catalog()
    rows = limit_probe_experiment(
        NTOrder(specs["b6_cx"], FROZEN_CONVENTION), (3, BraidWord(6, (4,))), range(1, 13), BallSpec(6, 2)
    )
    differing = [r for r in rows if r.differs]
    assert len(differing) >= 1
    _report(9, 600, started, f"{len(differing)} probes stabilize away from the base order (evidence only)")


def test_criterion_10_property_suites():
    started = time.monotonic()
    # braid relations as equality of substitution maps, n <= 6
    for n in range(3, 7):
        for i in range(1, n - 1):
            assert artin_map_of(BraidWord(n, (i, i + 1, i))) == artin_map_of(
                BraidWord(n, (i + 1, i, i + 1))
            )
        for i, j in itertools.combinations(range(1, n), 2):
            if j - i >= 2:
                assert artin_map_of(BraidWord(n, (i, j))) == artin_map_of(BraidWord(n, (j, i)))

    # planar order equivariance under 1000 random braid actions
    rng = random.Random(11)
    conv = FROZEN_CONVENTION
    done = 0
    while done < 1000:
        beta = random_word(rng, 4, rng.randrange(0, 6))
        u = random_free_word(rng, 4, rng.randrange(0, 8))
        v = random_free_word(rng, 4, rng.randrange(0, 8))
        if u == v:
            continue
        m = artin_map_of(beta, conv.artin_mirrored)
        assert divergence(u, v, conv, None)[1] == divergence(apply_map(m, u), apply_map(m, v), conv, None)[1]
        done += 1

    # order axioms, 1000 random words per oracle implementation
    oracles = [
        DehornoyOrder(3),
        catalog_order("dehornoy_3"),
        ConjugatedOrder(DehornoyOrder(3), BraidWord(3, (-2, -2, 1))),
        ConvexExtensionOrder(catalog_order("b6_cx"), soul_lex_of_base(catalog_order("b6_cx"))),
        catalog_order("sturmian_3"),
    ]
    for oracle in oracles:
        n = oracle.n
        rng = random.Random(13)
        done = 0
        while done < 1000:
            a = random_word(rng, n, rng.randrange(0, 6))
            b = random_word(rng, n, rng.randrange(0, 6))
            try:
                assert oracle.sign(invert(a)) == -oracle.sign(a)
                if oracle.sign(a) == 1 and oracle.sign(b) == 1:
                    assert oracle.sign(multiply(a, b)) == 1
            except UndecidedComparisonError:
                assert is_trivial_braid(a) or is_trivial_braid(b) or is_trivial_braid(
                    multiply(a, b)
                )
            done += 1

    # relator insertion invariance, 500 per oracle
    relators = {
        3: [(1, 2, 1, -2, -1, -2)],
        4: [(1, 2, 1, -2, -1, -2), (2, 3, 2, -3, -2, -3), (1, 3, -1, -3)],
        6: [(1, 2, 1, -2, -1, -2), (4, 5, 4, -5, -4, -5), (1, 4, -1, -4), (2, 5, -2, -5)],
    }
    for oracle in oracles:
        n = oracle.n
        rng = random.Random(17)
        done = 0
        while done < 500:
            w = random_word(rng, n, rng.randrange(0, 6))
            rel = rng.choice(relators[n])
            pos = rng.randrange(0, len(w.letters) + 1)
            padded = BraidWord(n, w.letters[:pos] + rel + w.letters[pos:])
            try:
                assert oracle.sign(padded) == oracle.sign(w)
            except UndecidedComparisonError:
                assert is_trivial_braid(w)
            done += 1
    _report(10, 600, started, "substitution relations; equivariance x1000; axioms x1000; relators x500")
