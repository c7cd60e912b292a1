"""The built-in geodesic specs and the calibration that froze their conventions.

Orientation is not chosen by fiat: calibrate_conventions searches the finite
convention space (germ fan direction x substitution mirror x angle flip x the
sign pattern of a length n-1 candidate word) for the combinations whose ray
order reproduces handle reduction on a whole ball, letter for letter.  The
result is frozen as planar.FROZEN_CONVENTION, the same flags at every rank,
and the dehornoy_n words; matches always come in equivalent twins (mirroring
the substitution rules and flipping every verdict cancel out), and the
all-negative sign pattern is the canonical pick because it makes the
generator divergence depths symmetric under inversion.

The B4 and B6 entries with richer convex chains are search artifacts: the
search in demos/03_convex_chains.py enumerates short words, keeps those whose
generator divergence depths are inversion-symmetric and die in the requested
order, and the first hits were committed here after passing the full chain,
soul and axiom checks.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .braids import BallSpec
from .errors import CalibrationError, MalformedInputError
from .freewords import (
    Custom,
    FreeLetters,
    FreeWord,
    QuadraticIrrational,
    Sturmian,
)
from .experiments import agreement_radii
from .nt import GeodesicSpec, NTOrder
from .orders import DehornoyOrder
from .planar import FROZEN_CONVENTION, GermConvention

STURMIAN_SLOPE = QuadraticIrrational(d=7, p=3, q=11)  # (3 + sqrt 7)/11 ~ 0.5132


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
    return NTOrder(specs[name])


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
    candidates = [
        (FreeWord(n, tuple(s * i for i, s in zip(range(1, n), signs))), GermConvention(*flags))
        for signs in itertools.product((-1, 1), repeat=n - 1)
        for flags in itertools.product((False, True), repeat=3)
    ]
    orders = [NTOrder(_dehornoy_spec("calibration", word), conv) for word, conv in candidates]
    reports = agreement_radii(DehornoyOrder(n), orders, BallSpec(n, max_length))
    matches = [c for c, report in zip(candidates, reports) if report.witness is None]
    if not matches:
        raise CalibrationError(
            f"no convention reproduces the oracle on the B_{n} ball of radius {max_length}"
        )
    # all matches reproduced the same target signs, hence agree pairwise on
    # the ball; anything else would mean the comparison above was unstable
    canonical = (dehornoy_word(n), FROZEN_CONVENTION)
    word, conv = canonical if canonical in matches else matches[0]
    return CalibrationResult(conv, word, tuple(matches))

