"""The built-in geodesic specs and the calibration that froze their conventions.

Orientation is not chosen by fiat: calibrate_conventions searches the finite
convention space (germ fan direction x substitution mirror x angle flip x the
sign pattern of a length n-1 candidate word) for the combinations whose ray
order reproduces handle reduction on a whole ball, letter for letter.  The
result is frozen below as FROZEN_CONVENTION_FLAGS and the dehornoy_n words;
matches always come in equivalent twins (mirroring the substitution rules and
flipping every verdict cancel out), and the all-negative sign pattern is the
canonical pick because it makes the generator divergence depths symmetric
under inversion.

The B4 and B6 entries with richer convex chains are search artifacts:
search_chain_words enumerates short words, keeps those whose generator
divergence depths are inversion-symmetric and die in the requested order, and
the first hits were committed here after passing the full chain, soul and
axiom checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .braids import BallSpec
from .dehornoy import dehornoy_sign
from .errors import CalibrationError, MalformedInputError
from .freewords import (
    Custom,
    FreeLetters,
    FreeWord,
    QuadraticIrrational,
    Sturmian,
)
from .nt import GeodesicSpec, NTOrder, letter_depths
from .planar import DEFAULT_DEPTH_CAP, GermConvention

# flags: (germ_order_reversed, artin_mirrored, angle_flipped)
FROZEN_CONVENTION_FLAGS = (True, False, True)

STURMIAN_SLOPE = QuadraticIrrational(d=7, p=3, q=11)  # (3 + sqrt 7)/11 ~ 0.5132


def frozen_convention(n: int) -> GermConvention:
    rev, mir, flip = FROZEN_CONVENTION_FLAGS
    return GermConvention(n, rev, mir, flip)


def dehornoy_word(n: int) -> FreeWord:
    return FreeWord(n, tuple(-i for i in range(1, n)))


def _dehornoy_spec(name: str, word: FreeWord) -> GeodesicSpec:
    """One separating depth per letter of the word, soul {n - 1}."""
    return GeodesicSpec(name, word, tuple(range(1, word.n)), (word.n - 1,))


def _blocks_stream(n: int, head: FreeLetters, block_a: FreeLetters, block_b: FreeLetters, label: str) -> Custom:
    """head then Sturmian-driven blocks; aperiodic, positive past the head.

    The blocks follow the letters of the Sturmian word of STURMIAN_SLOPE:
    block_a for a 1, block_b for a 2."""
    choices = Sturmian(2, STURMIAN_SLOPE, 1, 2)

    def letters() -> Iterator[int]:
        yield from head
        for k in choices:
            yield from block_a if k == 1 else block_b

    return Custom(n, letters, label=label)


def _sturmian_spec(n: int) -> GeodesicSpec:
    # block letters must not assemble invariant loop products: the forward
    # block alone is the boundary loop, which every braid fixes, so the
    # aperiodic mix with reversed blocks is what breaks all stabilizers
    if n == 3:
        word = Sturmian(3, STURMIAN_SLOPE, 1, 2)
    else:
        word = _blocks_stream(
            n, (), tuple(range(1, n + 1)), tuple(range(n, 0, -1)), f"sturmian_{n}_blocks"
        )
    return GeodesicSpec(f"sturmian_{n}", word)


def _mixed_4_spec() -> GeodesicSpec:
    # one separating moment (the first loop), then an aperiodic wander among
    # the remaining three punctures: the only proper convex level is the
    # stabilizer of the first loop, so the soul is trivial.  The scrambled
    # block keeps x_2 x_3 products from aligning, which would hand sigma_2 a
    # stabilizer.
    word = _blocks_stream(4, (-1,), (2, 3, 4), (3, 2, 4), "mixed_4_tail")
    return GeodesicSpec("mixed_4", word, (1,))


def catalog() -> dict[str, GeodesicSpec]:
    """All built-in specs by name."""
    entries = [_dehornoy_spec(f"dehornoy_{n}", dehornoy_word(n)) for n in (3, 4, 5, 6)]
    entries.append(_dehornoy_spec("b4_a", dehornoy_word(4)))
    entries.append(GeodesicSpec("b4_b", FreeWord(4, (3, 4, -1, -3)), (2, 3, 4), (1, 3)))
    entries.append(GeodesicSpec("b4_c", FreeWord(4, (-2, -1, -3, -1)), (2, 3, 4), (1, 3)))
    entries.append(
        GeodesicSpec("b6_cx", FreeWord(6, (3, 4, 5, 6, 5, 6, -1, -3, -5)), (4, 6, 7, 8, 9), (1, 3, 5))
    )
    entries.append(_mixed_4_spec())
    entries.extend(_sturmian_spec(n) for n in (3, 4, 5, 6))
    return {spec.name: spec for spec in entries}


def catalog_order(name: str) -> NTOrder:
    specs = catalog()
    if name not in specs:
        raise MalformedInputError(f"unknown catalog entry {name!r} (have {sorted(specs)})")
    return order_for_spec(specs[name])


def order_for_spec(spec: GeodesicSpec, depth_cap: int = DEFAULT_DEPTH_CAP) -> NTOrder:
    return NTOrder(spec, frozen_convention(spec.n), depth_cap)


# --- calibration --------------------------------------------------------------


class CalibrationResult(NamedTuple):
    convention: GermConvention
    word: FreeWord
    matches: tuple[tuple[FreeWord, GermConvention], ...]


def calibrate_conventions(n: int, max_length: int) -> CalibrationResult:
    """Search flags x sign patterns for exact ball agreement with handle
    reduction.

    All matches must agree with each other on the ball (they are equivalent
    there); no match at all means the comparator or the action is broken, so
    this raises CalibrationError.
    """
    if n < 3:
        raise MalformedInputError("calibration needs n >= 3")
    ball = list(BallSpec(n, max_length).words())
    targets = [dehornoy_sign(w) for w in ball]
    matches: list[tuple[FreeWord, GermConvention]] = []
    for signs in itertools.product((-1, 1), repeat=n - 1):
        word = FreeWord(n, tuple(s * i for i, s in zip(range(1, n), signs)))
        spec = _dehornoy_spec("calibration", word)
        for rev, mir, flip in itertools.product((False, True), repeat=3):
            conv = GermConvention(n, rev, mir, flip)
            order = NTOrder(spec, conv)
            if all(order.sign(w) == t for w, t in zip(ball, targets)):
                matches.append((word, conv))
    if not matches:
        raise CalibrationError(
            f"no convention reproduces the oracle on the B_{n} ball of radius {max_length}"
        )
    # all matches reproduced the same target signs, hence agree pairwise on
    # the ball; anything else would mean the comparison above was unstable
    canonical = (dehornoy_word(n), frozen_convention(n))
    word, conv = canonical if canonical in matches else matches[0]
    return CalibrationResult(conv, word, tuple(matches))


# --- the committed chain-word search -------------------------------------------


def search_chain_words(
    n: int,
    death_order: Sequence[int],
    lengths: Iterable[int],
) -> list[tuple[FreeLetters, tuple[int, ...]]]:
    """Words whose generators die symmetrically in the requested order.

    Returns (letters, separating_depths) pairs; depths are the deaths of the
    second dying generator onward plus the word length, so that membership at
    level i means surviving past the i-th death.  This is the procedure that
    produced the committed b4_b, b4_c and b6_cx words.
    """
    if sorted(death_order) != list(range(1, n)):
        raise MalformedInputError("death_order must list every generator once")
    alphabet = [k for i in range(1, n + 1) for k in (i, -i)]
    results = []
    for L in lengths:
        for tup in itertools.product(alphabet, repeat=L):
            if any(tup[i] == -tup[i + 1] for i in range(L - 1)):
                continue
            deaths = letter_depths(order_for_spec(GeodesicSpec("search", FreeWord(n, tup))))
            if any(deaths[j] != deaths[-j] for j in range(1, n)):
                continue
            seq = [deaths[j] for j in death_order]
            if seq != sorted(seq) or len(set(seq)) != len(seq) or seq[-1] >= L:
                continue
            depths = tuple(seq[1:]) + (L,)
            results.append((tup, depths))
    return results
