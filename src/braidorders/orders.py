"""Sign oracles for left-orderings and the combinators that build new ones.

An order oracle is anything with a strand count ``n`` and a ``sign`` method
mapping a braid word to -1 / 0 / +1, zero only on trivial braids.  A ray
order on a stream returns 0 on the empty (freely reduced) word only, and
raises UndecidedComparisonError at its depth cap on every other trivial
braid.  The oracles here: handle reduction, ray orders, conjugates of an
oracle, and convex extensions that re-order the abelian soul block by an
exact ordering of Z^k while leaving everything outside untouched.
"""

from __future__ import annotations

from functools import cached_property
from typing import Protocol, Sequence

from .braids import BraidWord, conjugate, invert, linking_number, multiply, permutation_of
from .dehornoy import dehornoy_sign, is_trivial_braid
from .errors import MalformedInputError, Value, check_integer, check_non_square
from .nt import NTOrder, letter_depths, moved_order


class OrderOracle(Protocol):
    n: int

    def sign(self, b: BraidWord) -> int: ...


class DehornoyOrder(Value):
    """The handle-reduction ordering as an oracle."""

    n: int

    def __init__(self, n):
        self.__dict__.update(n=n)

    def sign(self, b: BraidWord) -> int:
        if b.n != self.n:
            raise MalformedInputError("strand counts differ")
        return dehornoy_sign(b)


class ConjugatedOrder(Value):
    """sign(b) = base.sign(h^-1 b h); nesting composes contravariantly.  A ray
    order's conjugate moves the ray: the order of h(R) (nt.moved_order, made
    at the first sign) signs b by one transport of b alone over h(R), read
    into a shared prefix of what the deepest scan read (8 B a letter); on a
    stream the depth cap binds the scan of b(h(R)) against h(R)."""

    base: OrderOracle
    h: BraidWord

    def __init__(self, base, h):
        if not (hasattr(base, "n") and hasattr(base, "sign")):
            raise MalformedInputError(f"conjugated base must be an order oracle, got {base!r}")
        if not isinstance(h, BraidWord):
            raise MalformedInputError(f"conjugator must be a BraidWord, got {h!r}")
        if h.n != base.n:
            raise MalformedInputError("conjugator strand count differs from base")
        self.__dict__.update(base=base, h=h)

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def _moved(self) -> NTOrder | None:  # not a field: eq and repr skip it
        return moved_order(self.base, self.h) if isinstance(self.base, NTOrder) else None

    def sign(self, b: BraidWord) -> int:
        moved = self._moved
        return self.base.sign(conjugate(b, self.h)) if moved is None else moved.sign(b)


# --- exact orderings of Z^k --------------------------------------------------


def _sequence(values, field: str) -> Sequence:
    """A Z^k order's field, checked to be a sequence."""
    if not isinstance(values, Sequence):
        raise MalformedInputError(f"{field} must be a sequence, got {values!r}")
    return values


class ZkLex(Value):
    """Lexicographic: sign of the first nonzero signed coordinate, in the
    given axis priority order (axes are vector positions, k of them)."""

    axes: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, axes, signs):
        for axis in _sequence(axes, "lex axes"):
            check_integer(axis, "lex axis")
        for s in _sequence(signs, "lex signs"):
            check_integer(s, "lex sign")
        if sorted(axes) != list(range(len(axes))):
            raise MalformedInputError("axes must be a permutation of 0..k-1")
        if len(signs) != len(axes) or any(s not in (-1, 1) for s in signs):
            raise MalformedInputError("signs must be +-1 per axis")
        self.__dict__.update(axes=axes, signs=signs)

    @property
    def k(self) -> int:
        return len(self.axes)

    @staticmethod
    def standard(k: int) -> "ZkLex":
        return ZkLex(tuple(range(k)), (1,) * k)


class ZkIntegerSlope(Value):
    """sign of sum(w_i v_i) with a lexicographic tie break on zero."""

    weights: tuple[int, ...]
    tie_break: ZkLex

    def __init__(self, weights, tie_break):
        for w in _sequence(weights, "slope weights"):
            check_integer(w, "slope weight")
        if not isinstance(tie_break, ZkLex):
            raise MalformedInputError(f"slope tie break must be a ZkLex, got {tie_break!r}")
        if tie_break.k != len(weights):
            raise MalformedInputError("weight/tie-break dimension mismatch")
        self.__dict__.update(weights=weights, tie_break=tie_break)

    @property
    def k(self) -> int:
        return len(self.weights)


class ZkQuadraticSlope(Value):
    """sign of sum((a_i + b_i sqrt(d)) v_i), exactly, in integer arithmetic."""

    d: int
    weights: tuple[tuple[int, int], ...]

    def __init__(self, d, weights):
        check_integer(d, "qslope d")
        for w in _sequence(weights, "qslope weights"):
            if not isinstance(w, tuple) or len(w) != 2:
                raise MalformedInputError(f"qslope weight must be a pair (a, b), got {w!r}")
            for c in w:
                check_integer(c, "qslope weight")
        check_non_square(d)
        # Q(sqrt d) has dimension 2 over Q: the order is total only when no
        # nonzero vector has weight sum 0
        if len(weights) == 1:
            total = weights[0] != (0, 0)
        elif len(weights) == 2:
            (a1, b1), (a2, b2) = weights
            total = a1 * b2 != a2 * b1
        else:
            total = False
        if not total:
            raise MalformedInputError(
                "qslope needs k = 1 with a nonzero weight or k = 2 with independent weights"
            )
        self.__dict__.update(d=d, weights=weights)

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
    # A + B sqrt(d): A's sign when A and B agree or B = 0, B's when A = 0,
    # else that of the larger term (A^2 != dB^2, as d is not a square)
    a_part = sum(a * x for (a, _), x in zip(spec.weights, v))
    b_part = sum(b * x for (_, b), x in zip(spec.weights, v))
    sa, sb = (a_part > 0) - (a_part < 0), (b_part > 0) - (b_part < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a_part * a_part > spec.d * b_part * b_part else sb


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
    if soul and not 1 <= soul[0] <= soul[-1] <= b.n - 1:
        raise MalformedInputError(f"soul generators {list(soul)} out of range for B_{b.n}")
    # every strand ends where it began or at its soul partner
    for p, q in enumerate(permutation_of(b), 1):
        if q != p and not (abs(q - p) == 1 and min(p, q) in soul):
            return None
    exponents = tuple(linking_number(b, i, i + 1) for i in soul)
    candidate_letters: list[int] = []
    for i, e in zip(soul, exponents):
        candidate_letters.extend([i if e > 0 else -i] * abs(e))
    if not is_trivial_braid(multiply(b, invert(BraidWord(b.n, tuple(candidate_letters))))):
        return None
    return exponents


class ConvexExtensionOrder(Value):
    """Re-order the soul block by a Z^k ordering; defer to the base outside."""

    base: NTOrder
    soul_order: ZkOrderSpec

    def __init__(self, base, soul_order):
        if not isinstance(base, NTOrder):
            raise MalformedInputError(f"convex extension base must be an NTOrder, got {base!r}")
        if not isinstance(soul_order, ZkOrderSpec):
            raise MalformedInputError(f"soul order must be a Z^k order, got {soul_order!r}")
        spec = base.spec
        if not spec.soul_generators:
            raise MalformedInputError("convex extension needs a base with nonempty soul")
        if spec.type_tag != "finite":
            raise MalformedInputError("convex extension needs a finite-type base")
        if soul_order.k != len(spec.soul_generators):
            raise MalformedInputError("soul order rank differs from soul rank")
        self.__dict__.update(base=base, soul_order=soul_order)

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
