"""Sign oracles for left-orderings and the combinators that build new ones.

An order oracle is anything with a strand count ``n`` and a ``sign`` method
mapping a braid word to -1 / 0 / +1 (zero exactly on trivial braids).  The
oracles here: handle reduction, ray orders, conjugates of an oracle, and
convex extensions that re-order the abelian soul block by an exact ordering
of Z^k while leaving everything outside untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Protocol, Sequence

from .braids import BraidWord, conjugate, invert, linking_number, multiply, permutation_of
from .dehornoy import dehornoy_sign, is_trivial_braid
from .errors import MalformedInputError, check_integer
from .nt import NTOrder, letter_depths


class OrderOracle(Protocol):
    n: int

    def sign(self, b: BraidWord) -> int: ...


@dataclass(frozen=True)
class DehornoyOrder:
    """The handle-reduction ordering as an oracle."""

    n: int

    def sign(self, b: BraidWord) -> int:
        if b.n != self.n:
            raise MalformedInputError("strand counts differ")
        return dehornoy_sign(b)


@dataclass(frozen=True)
class ConjugatedOrder:
    """sign(b) = base.sign(h^-1 b h); nesting composes contravariantly."""

    base: OrderOracle
    h: BraidWord

    def __post_init__(self):
        if not isinstance(self.h, BraidWord):
            raise MalformedInputError(f"conjugator must be a BraidWord, got {self.h!r}")
        if self.h.n != self.base.n:
            raise MalformedInputError("conjugator strand count differs from base")

    @property
    def n(self) -> int:
        return self.base.n

    def sign(self, b: BraidWord) -> int:
        return self.base.sign(conjugate(b, self.h))


# --- exact orderings of Z^k --------------------------------------------------


@dataclass(frozen=True)
class ZkLex:
    """Lexicographic: sign of the first nonzero signed coordinate, in the
    given axis priority order (axes are vector positions, k of them)."""

    axes: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        for axis in self.axes:
            check_integer(axis, "lex axis")
        for s in self.signs:
            check_integer(s, "lex sign")
        if sorted(self.axes) != list(range(self.k)):
            raise MalformedInputError("axes must be a permutation of 0..k-1")
        if len(self.signs) != self.k or any(s not in (-1, 1) for s in self.signs):
            raise MalformedInputError("signs must be +-1 per axis")

    @property
    def k(self) -> int:
        return len(self.axes)

    @staticmethod
    def standard(k: int) -> "ZkLex":
        return ZkLex(tuple(range(k)), (1,) * k)


@dataclass(frozen=True)
class ZkIntegerSlope:
    """sign of sum(w_i v_i) with a lexicographic tie break on zero."""

    weights: tuple[int, ...]
    tie_break: ZkLex

    def __post_init__(self):
        for w in self.weights:
            check_integer(w, "slope weight")
        if not isinstance(self.tie_break, ZkLex):
            raise MalformedInputError(f"slope tie break must be a ZkLex, got {self.tie_break!r}")
        if self.tie_break.k != self.k:
            raise MalformedInputError("weight/tie-break dimension mismatch")

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ZkQuadraticSlope:
    """sign of sum((a_i + b_i sqrt(d)) v_i), exactly, in integer arithmetic."""

    d: int
    weights: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_integer(self.d, "qslope d")
        for w in self.weights:
            if not isinstance(w, tuple) or len(w) != 2:
                raise MalformedInputError(f"qslope weight must be a pair (a, b), got {w!r}")
            for c in w:
                check_integer(c, "qslope weight")
        if self.d <= 0 or isqrt(self.d) ** 2 == self.d:
            raise MalformedInputError("d must be a positive non-square")
        # Q(sqrt d) has dimension 2 over Q: the order is total only when no
        # nonzero vector has weight sum 0
        if self.k == 1:
            total = self.weights[0] != (0, 0)
        elif self.k == 2:
            (a1, b1), (a2, b2) = self.weights
            total = a1 * b2 != a2 * b1
        else:
            total = False
        if not total:
            raise MalformedInputError(
                "qslope needs k = 1 with a nonzero weight or k = 2 with independent weights"
            )

    @property
    def k(self) -> int:
        return len(self.weights)


ZkOrderSpec = ZkLex | ZkIntegerSlope | ZkQuadraticSlope


def zk_sign(spec: ZkOrderSpec, v: Sequence[int]) -> int:
    if len(v) != spec.k:
        raise MalformedInputError(f"vector has {len(v)} coordinates, expected {spec.k}")
    if isinstance(spec, ZkLex):
        for axis, s in zip(spec.axes, spec.signs):
            if v[axis] != 0:
                return s * (1 if v[axis] > 0 else -1)
        return 0
    if isinstance(spec, ZkIntegerSlope):
        total = sum(w * x for w, x in zip(spec.weights, v))
        if total != 0:
            return 1 if total > 0 else -1
        return zk_sign(spec.tie_break, v)
    # quadratic slope: A + B sqrt(d) with exact sign bookkeeping
    a_part = sum(a * x for (a, _), x in zip(spec.weights, v))
    b_part = sum(b * x for (_, b), x in zip(spec.weights, v))
    if b_part == 0:
        return 0 if a_part == 0 else (1 if a_part > 0 else -1)
    if a_part == 0:
        return 1 if b_part > 0 else -1
    if a_part > 0 and b_part > 0:
        return 1
    if a_part < 0 and b_part < 0:
        return -1
    # opposite signs: compare a_part^2 against d b_part^2 on the positive side
    if a_part > 0:
        return 1 if a_part * a_part > spec.d * b_part * b_part else -1
    return 1 if spec.d * b_part * b_part > a_part * a_part else -1


# --- soul membership ----------------------------------------------------------


def zk_membership(b: BraidWord, soul: Sequence[int]) -> tuple[int, ...] | None:
    """Exponent vector of b in <sigma_i : i in soul>, or None when outside;
    the soul lists its generators in axis order, ascending, as a spec's does.

    The permutation must move nothing outside the soul's transposition pairs,
    candidate exponents are read off linking numbers, and the candidate word
    is verified against b by an exact triviality check.
    """
    for i, j in zip(soul, soul[1:]):
        if j - i < 2:
            raise MalformedInputError(f"soul generators {i}, {j} are adjacent or out of order")
    pair_points = {p for i in soul for p in (i, i + 1)}
    for p, image in enumerate(permutation_of(b), 1):
        if p in pair_points:
            i = p if p in soul else p - 1
            if image not in (i, i + 1):
                return None
        elif image != p:
            return None
    exponents = tuple(linking_number(b, i, i + 1) for i in soul)
    candidate_letters: list[int] = []
    for i, e in zip(soul, exponents):
        candidate_letters.extend([i if e > 0 else -i] * abs(e))
    if not is_trivial_braid(multiply(b, invert(BraidWord(b.n, tuple(candidate_letters))))):
        return None
    return exponents


@dataclass(frozen=True)
class ConvexExtensionOrder:
    """Re-order the soul block by a Z^k ordering; defer to the base outside."""

    base: NTOrder
    soul_order: ZkOrderSpec

    def __post_init__(self):
        if not isinstance(self.base, NTOrder):
            raise MalformedInputError(f"convex extension base must be an NTOrder, got {self.base!r}")
        if not isinstance(self.soul_order, ZkOrderSpec):
            raise MalformedInputError(f"soul order must be a Z^k order, got {self.soul_order!r}")
        spec = self.base.spec
        if not spec.soul_generators:
            raise MalformedInputError("convex extension needs a base with nonempty soul")
        if spec.type_tag != "finite":
            raise MalformedInputError("convex extension needs a finite-type base")
        if self.soul_order.k != len(spec.soul_generators):
            raise MalformedInputError("soul order rank differs from soul rank")

    @property
    def n(self) -> int:
        return self.base.n

    def sign(self, b: BraidWord) -> int:
        if b.n != self.n:
            raise MalformedInputError("strand counts differ")
        v = zk_membership(b, self.base.spec.soul_generators)
        if v is not None:
            return zk_sign(self.soul_order, v)
        return self.base.sign(b)


def soul_lex_of_base(base: NTOrder) -> ZkLex:
    """The base order's own restriction to its soul, as a lex spec.

    Axis priority follows divergence depth: the generator that leaves the ray
    earliest dominates.  Every axis is positively oriented because positive
    half-twists are positive in every ray order.
    """
    soul = base.spec.soul_generators
    depths = letter_depths(base)
    order = sorted(range(len(soul)), key=lambda pos: depths[soul[pos]])
    return ZkLex(tuple(order), (1,) * len(soul))
