"""Space-of-orderings experiments: agreement metrics and convergence scans.

An agreement scan walks the ball once for a whole family of orders, the base
signing each ball word at most once, and returns one report per member; the
convergence scans and the limit probe return a tuple of rows, one per member
or per probe.  Reports and rows are plain named tuples holding only what the
scan computed, with no output code (the CLI writes them as text, JSON lines
or CSV, with the inputs it parsed); every scan is deterministic given its
inputs, and undecided sign evaluations are counted and surfaced rather than
coerced.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .braids import BallSpec, BraidWord, multiply, sigma
from .errors import MalformedInputError, SearchFailureError, UndecidedComparisonError
from .nt import NTOrder, key_cmp, order_key
from .orders import (
    ConjugatedOrder,
    OrderOracle,
    ZkIntegerSlope,
    soul_lex_of_base,
    zk_membership,
    zk_sign,
)

class AgreementReport(NamedTuple):
    """Largest ball radius on which two oracles' signs coincide."""

    radius: int
    witness: BraidWord | None
    witness_signs: tuple[int, int] | None
    undecided_count: int


_UNDECIDED = object()  # a base sign that was taken and came out undecided


def agreement_radii(base: OrderOracle, members: Sequence[OrderOracle], ball: BallSpec) -> tuple[AgreementReport, ...]:
    """Each member's signs against the base's on every word of the ball
    (words, not elements), in one walk: one report per member, in order.

    On each word every member with no witness yet signs, in order, and the
    base signs once, right after the first member that decided; an undecided
    sign on either side counts against the member.  A member's witness is its
    first disagreement in enumeration order (length-lex smallest) and its
    radius the largest L with no disagreement among words of length <= L; it
    drops out there, and the walk ends when no member is left.  An error other
    than an undecided sign rises from the earliest ball word that raises it.
    """
    if ball.n != base.n or any(m.n != base.n for m in members):
        raise MalformedInputError("strand counts differ")
    reports: list[AgreementReport | None] = [None] * len(members)
    undecided = [0] * len(members)
    live = list(enumerate(members))
    for w in ball.words():
        if not live:
            break
        s2 = None
        for i, member in tuple(live):
            try:
                s1 = member.sign(w)
            except UndecidedComparisonError:
                undecided[i] += 1
                continue
            if s2 is None:
                try:
                    s2 = base.sign(w)
                except UndecidedComparisonError:
                    s2 = _UNDECIDED
            if s2 is _UNDECIDED:
                undecided[i] += 1
            elif s1 != s2:
                reports[i] = AgreementReport(len(w) - 1, w, (s1, s2), undecided[i])
                live.remove((i, member))
    return tuple(r or AgreementReport(ball.max_length, None, None, u) for r, u in zip(reports, undecided))


def agreement_radius(o1: OrderOracle, o2: OrderOracle, ball: BallSpec) -> AgreementReport:
    """agreement_radii with the one member o1 and the base o2."""
    return agreement_radii(o2, [o1], ball)[0]


class ConjugateRow(NamedTuple):
    j: int
    conjugator: BraidWord
    radius: int
    witness: BraidWord | None
    witness_signs: tuple[int, int] | None
    undecided_count: int


class ExtensionRow(NamedTuple):
    M: int
    weights: tuple[int, ...]
    radius: int
    witness: BraidWord | None
    witness_signs: tuple[int, int] | None
    soul_witness_vector: tuple[int, ...] | None


def _conjugator(n: int, pattern: tuple[int, BraidWord], j: int) -> BraidWord:
    """sigma_s^-j u for pattern = (s, u): the j-th conjugator of the family."""
    s, u = pattern
    return multiply(sigma(n, s, -j), u)


def converge_conjugates_experiment(
    base: NTOrder, pattern: tuple[int, BraidWord], j_range: Sequence[int], ball: BallSpec
) -> tuple[ConjugateRow, ...]:
    """Agreement of the order with its conjugates by sigma_s^-j u along j.

    One row per j: the agreement radius on the ball, plus a distinctness witness
    (ball disagreement if one exists, else the canonical candidates
    sigma_s^-(j+c) u sigma_s^(j+c-1), c = 1..6, just past the ball); the base
    signs each ball word at most once for all j.

    Known defect: the candidates shift when the first letters of u cancel
    against sigma_s^-(j+c), so they depend on how u is written: on
    dehornoy_3, u = 2 1 over j = 4..6 finds none where u = 1 over j = 3..5,
    the same conjugators, finds one for each j.
    """
    n, s = base.n, pattern[0]
    _conjugator(n, pattern, 0)  # checks s and u, also for an empty range
    conjugates = [ConjugatedOrder(base, _conjugator(n, pattern, j)) for j in j_range]
    rows = []
    for j, conj, rep in zip(j_range, conjugates, agreement_radii(base, conjugates, ball)):
        witness, signs = rep.witness, rep.witness_signs
        if witness is None:
            for c in range(1, 7):
                w = multiply(_conjugator(n, pattern, j + c), sigma(n, s, j + c - 1))
                try:
                    pair = conj.sign(w), base.sign(w)
                except UndecidedComparisonError:
                    continue
                if pair[0] != pair[1]:
                    witness, signs = w, pair
                    break
        rows.append(ConjugateRow(j, conj.h, rep.radius, witness, signs, rep.undecided_count))
    return tuple(rows)


def _soul_members(base: NTOrder, soul: Sequence[int], ball: BallSpec) -> list[tuple]:
    """(word, exponent vector, base sign) of each soul member of the ball, in
    ball order."""
    return [(w, v, base.sign(w)) for w in ball.words() if (v := zk_membership(w, soul)) is not None]


def converge_extensions_experiment(
    base: NTOrder, m_range: Sequence[int], ball: BallSpec
) -> tuple[ExtensionRow, ...]:
    """Convex extensions by integer-slope soul orders approximating the base,
    one row per M.

    Soul weights (M^(k-1), ..., M, 1) follow the base's own lex priority, so
    growing M forces agreement on ever larger balls while staying distinct.
    Needs soul rank k >= 2 (rank one has no slope family; conjugates apply).

    An extension equals its base outside the soul, so each M is compared
    with the base on the ball's soul members only, whose membership and base
    sign are taken once for all M.  A finite-type base has a finite ray and
    decides every sign, so the rows count no undecided words.
    """
    soul = base.spec.soul_generators
    k = len(soul)
    if base.spec.type_tag != "finite" or k < 2:
        raise MalformedInputError("extension experiment needs finite type with soul rank >= 2")
    if ball.n != base.n:
        raise MalformedInputError("strand counts differ")
    if any(M < 2 for M in m_range):
        raise MalformedInputError("slope parameter M must be >= 2")
    lex = soul_lex_of_base(base)
    members = _soul_members(base, soul, ball) if m_range else []  # read once for every M
    # past the ball, slope and lex disagree on e_hi - t e_lo for every hi above
    # lo in priority: lex reads +1, the slope w_hi - t w_lo = -w_lo for
    # t = w_hi // w_lo + 1 (w_lo divides w_hi).  The pair is the first in axis
    # order: hi the first axis not last in priority, lo the first below it.
    hi = 1 if lex.axes[-1] == 0 else 0
    lo = min(lex.axes[lex.axes.index(hi) + 1:])
    rows = []
    for M in m_range:
        weights = [0] * k
        for rank, pos in enumerate(lex.axes):
            weights[pos] = M ** (k - 1 - rank)
        slope = ZkIntegerSlope(tuple(weights), lex)
        radius, witness, signs, vector = ball.max_length, None, None, None
        for w, v, base_sign in members:
            ext_sign = zk_sign(slope, v)
            if ext_sign != base_sign:
                radius, witness, signs, vector = len(w) - 1, w, (ext_sign, base_sign), v
                break
        else:
            t = weights[hi] // weights[lo] + 1
            witness = BraidWord(base.n, (soul[hi],) + (-soul[lo],) * t)
            vector = tuple(1 if pos == hi else -t if pos == lo else 0 for pos in range(k))
            signs = (zk_sign(slope, vector), base.sign(witness))
        rows.append(ExtensionRow(M, tuple(weights), radius, witness, signs, vector))
    return tuple(rows)


class ProbeRow(NamedTuple):
    probe: BraidWord
    base_sign: int
    signs: tuple[int, ...]
    stable_sign: int | None

    @property
    def differs(self) -> bool:
        return self.stable_sign is not None and self.stable_sign != self.base_sign


def _stable_sign(signs: Sequence[int]) -> int | None:
    """The last value, when the last two agree and no flip occurs after the
    midpoint; else None."""
    if len(signs) < 2 or signs[-1] != signs[-2]:
        return None
    tail = signs[len(signs) // 2:]
    if any(a != b for a, b in zip(tail, tail[1:])):
        return None
    return signs[-1]


def limit_probe_experiment(
    base: NTOrder, pattern: tuple[int, BraidWord], n_range: Sequence[int], probe_ball: BallSpec
) -> tuple[ProbeRow, ...]:
    """Conjugate by sigma_s^-N u for N in range, pattern = (s, u), and watch
    which probe signs settle: one row per probe.

    Stabilization is a labeled heuristic (tail agreement with no late flip;
    a row's stable_sign is None when its signs did not settle); the rows
    claim nothing about the true limit order beyond the computed
    window, so the probe is inconclusive by design.
    """
    _conjugator(base.n, pattern, 0)  # checks s and u, also for an empty range
    conjugates = [ConjugatedOrder(base, _conjugator(base.n, pattern, N)) for N in n_range]
    soul = base.spec.soul_generators
    probes = [BraidWord(base.n, (i, -j)) for i in soul for j in soul if i != j]
    probes.extend(w for w in probe_ball.words() if w.letters)
    probes = list(dict.fromkeys(probes))

    rows = []
    for probe in probes:
        base_sign = base.sign(probe)
        signs = [conj.sign(probe) for conj in conjugates]
        rows.append(ProbeRow(probe, base_sign, tuple(signs), _stable_sign(signs)))
    return tuple(rows)


def small_positive_search(
    order: OrderOracle, soul: Sequence[int], ball: BallSpec
) -> BraidWord:
    """Order-minimal positive braid outside <soul> among the ball's positives;
    the running minimum keeps its order key (for a ray order, its image)."""
    best: BraidWord | None = None
    best_key = None
    for w in ball.words():
        if not w.letters:
            continue
        try:
            if order.sign(w) <= 0:
                continue
            if soul and zk_membership(w, soul) is not None:
                continue
            key = order_key(order, w)
            if best is None or key_cmp(order, key, best_key) < 0:
                best, best_key = w, key
        except UndecidedComparisonError:
            continue
    if best is None:
        raise SearchFailureError(
            f"no positive element outside the soul in ball L={ball.max_length}"
        )
    return best

