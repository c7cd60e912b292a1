"""Orderings of B_n induced by the action on a ray, and their convex structure.

A GeodesicSpec names a ray (finite word or infinite stream) together with its
separating structure: the prefix depths at which the ray has cut one more pair
of punctures apart, and the generators of its maximal abelian convex subgroup
(the soul).  The induced ordering compares a braid's image of the ray against
the ray itself by boundary angle; convex subgroup membership is divergence
depth against the separating depths.  Every image is made by one lazy
transport, _image_letters: one stage per braid letter, each holding back only
the one letter that bounded cancellation may still remove, so the scan pulls
image letters as it needs them and a sign costs memory linear in the braid
length, finite ray or stream alike.  Every question about the ordering (a
sign, a divergence depth, a convex level) reads one transport and one
divergence scan, divergence_depth, which returns the pair (depth, verdict);
the scan of a finite ray is uncapped, that of a stream stops at the order's
depth cap.  A ray order's conjugate moves the ray (moved_order): a sign
transports b alone over h(R), read into one shared prefix of what the deepest
scan read (8 B a letter); on a stream the cap binds b(h(R)) against h(R).

Two braids compare by their images, with no product word: a < b iff
a(R) < b(R) in angle, by left invariance (Short and Wiest, "Orderings of
mapping class groups after Thurston", Enseign. Math. 46, 2000).  order_cmp
makes each braid's image (_image, the same lazily read ray that moved_order
builds) and compares the two by one capped scan, _image_cmp, which the chain
report's running minima and maxima read too.  Streams compare the same way;
there the cap binds the common prefix of the two images, so near the cap the
undecided pairs can differ from those of the product a^-1 b (at the default
cap they agree on the tested balls), while decided verdicts agree.

Depth membership is not always a subgroup: nesting and convexity hold on the
sampled balls (tests, convex_chain_report), but in b4_b level 1 sigma_3^-2
and sigma_3^2 sigma_2^-1 are members and their product sigma_2^-1 is not.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterator, Mapping, NamedTuple

from .braids import BallSpec, BraidWord, conjugate, inverse_letters, invert, multiply, sigma
from .errors import (
    BudgetExceededError,
    MalformedInputError,
    SearchFailureError,
    SoulValidationError,
    StreamGrowthError,
    UndecidedComparisonError,
    check_integer,
)
from .freewords import (
    Custom,
    FreeLetters,
    FreeWord,
    Ray,
    format_infinite_word,
    parse_free_word,
    parse_infinite_word,
)
from .planar import (
    DEFAULT_DEPTH_CAP,
    EQUAL,
    FROZEN_CONVENTION,
    GREATER,
    LESS,
    GermConvention,
    divergence,
)

@dataclass(frozen=True)
class GeodesicSpec:
    """A named ray plus separating depths and soul generators.  The soul is
    kept ascending, the order of its Z^k axes; the strand count is the ray's
    rank, and the type follows from the ray and the depths."""

    name: str
    word: Ray
    separating_depths: tuple[int, ...] = ()
    soul_generators: tuple[int, ...] = ()

    def __post_init__(self):
        if not (hasattr(self.word, "n") and hasattr(self.word, "__iter__")):  # a ray, perhaps duck-typed
            raise MalformedInputError(f"spec word must be a free word or a stream, got {self.word!r}")
        check_integer(self.n, "strand count", 2)
        for d in self.separating_depths:
            check_integer(d, "separating depth", 1)
        for i in self.soul_generators:
            check_integer(i, "soul generator", 1)
        object.__setattr__(self, "separating_depths", tuple(self.separating_depths))
        object.__setattr__(self, "soul_generators", tuple(sorted(set(self.soul_generators))))
        depths = self.separating_depths
        if list(depths) != sorted(set(depths)):
            raise MalformedInputError("separating depths must be strictly increasing positives")
        soul = self.soul_generators
        for i, j in zip(soul, soul[1:]):
            if j - i < 2:
                raise MalformedInputError(f"soul generators {i}, {j} are adjacent")
        if soul and soul[-1] > self.n - 1:
            raise MalformedInputError(f"soul generator {soul[-1]} out of range")

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def m(self) -> int:
        return len(self.separating_depths)

    @property
    def type_tag(self) -> str:
        """finite for a finite ray; for a stream, infinite with separating
        depths and full_infinite without."""
        if isinstance(self.word, _FINITE_RAYS):
            return "finite"
        return "infinite" if self.separating_depths else "full_infinite"

    def validate(self) -> None:
        """Structural invariants for catalog-grade specs."""
        if self.type_tag == "finite":
            if self.m != self.n - 1:
                raise MalformedInputError(f"{self.name}: finite type needs n-1 separating depths")
            if self.separating_depths and self.separating_depths[-1] > len(self.word):
                raise MalformedInputError(f"{self.name}: separating depth beyond word length")
            if not self.soul_generators:
                raise MalformedInputError(f"{self.name}: finite type has a nonempty soul")
        elif self.soul_generators:
            raise MalformedInputError(f"{self.name}: infinite type has a trivial soul")
        elif self.m >= self.n - 1:
            raise MalformedInputError(f"{self.name}: mixed type needs 0 < m < n-1")


@dataclass(frozen=True)
class NTOrder:
    """The left-ordering induced by a spec, as a sign oracle on braid words,
    by default in the calibrated FROZEN_CONVENTION, the same at every rank."""

    spec: GeodesicSpec
    convention: GermConvention = FROZEN_CONVENTION
    depth_cap: int = DEFAULT_DEPTH_CAP

    def __post_init__(self):
        if not isinstance(self.spec, GeodesicSpec):
            raise MalformedInputError(f"order spec must be a GeodesicSpec, got {self.spec!r}")
        if not isinstance(self.convention, GermConvention):
            raise MalformedInputError(f"order convention must be a GermConvention, got {self.convention!r}")
        check_integer(self.depth_cap, "depth cap", 1)

    @property
    def n(self) -> int:
        return self.spec.n

    def sign(self, b: BraidWord) -> int:
        """-1 / 0 / +1: positive iff the braid moves the ray to a larger angle."""
        if not b.letters and b.n == self.spec.word.n:  # the scan checks any other rank
            return 0
        _, verdict = divergence_depth(self, b)
        if verdict is None:
            raise UndecidedComparisonError(self.depth_cap)
        return -verdict


# --- the braid action on the free group of puncture loops ------------------
#
# Each generator acts by the substitution
#
#     sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
#     sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
#
# with all other generators fixed (a "mirrored" convention swaps the two
# rules).  _letter_tables holds it as one plain dict per braid letter, which
# _stage_tables recasts for the transport.
#
# Bounded cancellation (Cooper 1987) for one braid letter: where the reduced
# images of u and v meet, for a freely reduced product u v, at most this many
# letters cancel on each side.  Proof, for either rule of either convention:
#
# * Each rule is the transposition x_i <-> x_{i+1} followed by one
#   conjugation y -> c y c^-1 of a generator y by a letter c:
#   x_{i+1} -> x_i x_{i+1} x_i^-1, or x_i -> x_{i+1}^-1 x_i x_{i+1}.  The
#   transposition renames letters and cancels nothing.
# * Write each letter y^e of a reduced word w as c y^e c^-1.  A pair cancels
#   only where the c^-1 after a y letter meets a c (inserted or of w), or a
#   c^-1 of w meets the c before a y letter.  Each such pair sits at one pair
#   of adjacent letters of w (y^e y^e, y^e c or c^-1 y^e), the pairs are
#   disjoint, and once they are removed a letter y^e faces a letter that is
#   not y^-e, so nothing cascades: the syllables of y stay intact.
# * So the reduced image of u v is the reduced images of u and v side by
#   side, less at most the one pair at the junction: one letter a side.
#
# The bound is met: u = v = y cancels c^-1 c.  A transport stage holds back
# this many letters and passes on the rest, which no later letter of the ray
# can cancel.  It also makes one comparison per junction: the first letter
# of the incoming image against the stage's last letter (_stage_tables).
#
# Often the held letter is final as well, and the stage passes it at once.
# Let u be the stage's input so far: it is freely reduced (the ray is checked
# as it is read, and each stage passes on a reduced image).  By the bound for
# u and any continuation v, the last letter of u's reduced image can only be
# cancelled by the first letter of v's.  Among the images of single letters,
# y^+-1 stands only inside c y^+-1 c^-1; every other image is one letter
# (c^+-1 or a fixed generator), and two one-letter images are inverse only
# for inverse letters.  Hence:
#
# * no image starts or ends with y^+-1;
# * in v's image, a one-letter image(v_1) cancels only if it is c^-1 and
#   image(v_2) is c y^+-1 c^-1, which leaves y^+-1 first;
# * so v's reduced image starts with image(v_1)[0], or with y^+-1 after
#   image(v_1) = c^-1.
#
# Say the stage has just received z.  Its last letter is then either
#
# * h = image(z)[-1], which is not y^+-1, while v_1 != z^-1: so h is final
#   unless the image of some z' != z^-1 starts with h^-1.  That is the
#   "safe" flag of _stage_tables; or
# * y^e, when image(z) is one letter that cancelled the held letter.  That
#   letter was the last of an image or a y^+-1 (by induction), and a
#   one-letter image is no y^+-1, nor the inverse of the one-letter image of
#   the letter before z; so it was the c^-1 ending c y^e c^-1, and
#   image(z) = c.  Only v_1 = z^-1 has the image c^-1, so y^e is final; and
#   z is flagged safe, as no image but c^-1 starts with c^-1.
#
# So after a receipt flagged safe the stage may pass every letter it holds,
# and no case needs a guard.
SINGLE_LETTER_BOUND = 1


@lru_cache(maxsize=None)
def _letter_tables(n: int, mirrored: bool) -> dict[int, dict[int, FreeLetters]]:
    """Braid letter -> image of every signed letter of F_n under it, for
    every braid letter of B_n (shared: callers must not mutate)."""
    tables: dict[int, dict[int, FreeLetters]] = {}
    for letter in (k for i in range(1, n) for k in (i, -i)):
        i = abs(letter)
        if (letter > 0) != mirrored:
            moved = {i: (i, i + 1, -i), i + 1: (i,)}
        else:
            moved = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
        images = tables[letter] = {}
        for j in range(1, n + 1):
            images[j] = img = moved.get(j, (j,))
            images[-j] = inverse_letters(img)
    return tables


@lru_cache(maxsize=None)
def _stage_tables(
    n: int, mirrored: bool
) -> dict[int, dict[int, tuple[int, FreeLetters, FreeLetters, bool]]]:
    """_letter_tables with each image as the entry a transport stage reads:
    (the stage letter the image's first letter would cancel, the image, the
    image less its first letter, whether the stage may pass every letter it
    holds once it has received this one: no image of a letter other than its
    inverse starts with the inverse of its image's last letter, see above
    SINGLE_LETTER_BOUND).  Shared: callers must not mutate."""
    stage_tables = {}
    for letter, images in _letter_tables(n, mirrored).items():
        stage_tables[letter] = {
            k: (-img[0], img, img[1:], all(other[0] != -img[-1] for j, other in images.items() if j != -k))
            for k, img in images.items()
        }
    return stage_tables


def _image_letters(b: BraidWord, ray: Ray, mirrored: bool) -> Iterator[int]:
    """The image of a ray under the braid, letter by letter, read lazily.

    One stage per braid letter, the last braid letter acting first, so the
    action is a left action (a b moves the ray as b, then a): a stage appends
    the images of the letters it receives through its braid letter's dict
    from _stage_tables, looked up once per transport.  By bounded
    cancellation, where the images of a reduced prefix and of the next letter
    meet under one braid letter, at most SINGLE_LETTER_BOUND = 1 letter
    cancels on each side (proved above): so a stage compares only the image's
    first letter with its own last letter, and passes a letter on to the next
    stage once a letter is held behind it.  After a receipt whose stage
    table entry is safe, no next image can cancel the stage's last letter
    (proved above), so the stage passes on every letter it holds.  When a
    finite ray ends, the stages flush from the first to the last.  The stages
    live in one loop with a stage pointer: the highest stage that can pass a
    letter on does so, and the ray is read only when none can.  A stage
    receives a letter only when it holds at most SINGLE_LETTER_BOUND, and a
    letter's image has at most 3 letters, so no stage holds more than
    SINGLE_LETTER_BOUND + 3 letters.

    A stage that would cancel a letter it has already passed on raises
    MalformedInputError: the ray was not freely reduced.  A stream raises
    StreamGrowthError after (3 |b| + 16) 2^10 letters without an image letter.
    """
    table = _stage_tables(b.n, mirrored)
    tables = [table[letter] for letter in reversed(b.letters)]
    top = len(tables)
    patience = None if isinstance(ray, _FINITE_RAYS) else (3 * top + 16) << 10
    # stage s: the letter it passed on last (0 before the first), then the
    # letters it holds back; it passes one on while its length exceeds
    # limits[s], which its last receipt sets (1 once the stage is flushing)
    stages = [[0] for _ in tables]
    full = SINGLE_LETTER_BOUND + 1
    limits = [full] * top
    letters = iter(ray)
    flushing = -1  # once the ray has ended: the lowest stage not yet drained
    idle = 0
    s = top - 1
    while True:
        while s >= 0 and len(stages[s]) <= limits[s]:
            s -= 1
        if s >= 0:
            del stages[s][0]
            letter = stages[s][0]
        elif flushing < 0 and (letter := next(letters, None)) is not None:
            idle += 1
            if patience is not None and idle > patience:
                raise StreamGrowthError(f"no image letter after {idle} stream letters")
        else:  # the ray has just ended, or stage `flushing` is drained
            flushing += 1
            if flushing == top:
                return
            s = flushing
            limits[s] = 1
            continue
        s += 1
        while s < top:
            stage = stages[s]
            cancels, image, rest, safe = tables[s][letter]
            if stage[-1] == cancels:
                stage.pop()
                if not stage:
                    raise MalformedInputError("the transported ray is not freely reduced")
                stage += rest
            else:
                stage += image
            limits[s] = limit = 1 if safe else full
            if len(stage) <= limit:
                break
            del stage[0]
            letter = stage[0]
            s += 1
        else:
            idle = 0
            yield letter
            s = top - 1


class _FiniteImage(Custom):
    """A finite ray's image, read through a shared prefix: it ends, unchecked."""

    def _source(self) -> Iterator[int]:
        return iter(self.letters())


_FINITE_RAYS = (FreeWord, _FiniteImage)  # the rays that end: their scans are exact
SCAN_BUDGET = 1 << 18  # the letters a finite ray's scan may read


def _image(order: NTOrder, b: BraidWord) -> Ray:
    """b(R), the image of the order's ray under b, read lazily into a prefix
    that every reader of it shares: a finite ray's image grows exponentially
    with |b| under a pseudo-Anosov b, so no reader takes more than it needs."""
    spec = order.spec
    if b.n != spec.n:
        raise MalformedInputError("strand counts differ")
    letters = partial(_image_letters, b, spec.word, order.convention.artin_mirrored)
    return (_FiniteImage if spec.type_tag == "finite" else Custom)(b.n, letters, "image")


def moved_order(order: NTOrder, h: BraidWord) -> NTOrder:
    """The conjugate of the order by h (its sign of h^-1 b h is this order's
    sign of b): the order of h(R).  The moved spec has a name and a word
    only: the base's separating depths and soul do not describe h(R)."""
    name = f"({h}).{order.spec.name}" if h.letters else order.spec.name
    return replace(order, spec=GeodesicSpec(name, _image(order, h)))


def _scan(order: NTOrder, u: Ray, v: Ray) -> tuple[int, int | None]:
    """planar.divergence of two rays under the order's convention, capped by
    the depth cap on a stream; a finite ray's scan, exact but deep under a
    pseudo-Anosov braid, raises BudgetExceededError at SCAN_BUDGET letters."""
    finite = isinstance(order.spec.word, _FINITE_RAYS)
    depth, verdict = divergence(u, v, order.convention, SCAN_BUDGET if finite else order.depth_cap)
    if finite and verdict is None:
        raise BudgetExceededError(f"a finite ray's scan read its budget of {SCAN_BUDGET} letters", None)
    return depth, verdict


def divergence_depth(order: NTOrder, b: BraidWord) -> tuple[int, int | None]:
    """(depth, verdict): the longest common prefix of the ray and its image
    under b, with the angle verdict LESS, EQUAL or GREATER, from one
    transport and one scan (_scan).  A stream that agrees with its image up
    to the depth cap gives (cap, None)."""
    word = order.spec.word
    if b.n != word.n:  # the spec's strand count, read without a property call
        raise MalformedInputError("strand counts differ")
    return _scan(order, word, _image_letters(b, word, order.convention.artin_mirrored))


def _image_cmp(order: NTOrder, x: Ray, y: Ray) -> int:
    """-1 / 0 / +1 as the images x and y compare in angle, by one scan; on a
    stream, images that agree up to the depth cap raise
    UndecidedComparisonError."""
    _, verdict = _scan(order, x, y)
    if verdict is None:
        raise UndecidedComparisonError(order.depth_cap)
    return verdict


def order_cmp(oracle, a: BraidWord, b: BraidWord) -> int:
    """-1 when a < b under the oracle's ordering, 0 when equal, +1 when
    a > b, by left invariance: a < b iff a^-1 b is positive.

    A ray order forms no product: a^-1 b moves R to a larger angle iff b(R)
    lies above a(R), as a acts on the boundary preserving the angle order
    (Short and Wiest, "Orderings of mapping class groups after Thurston",
    Enseign. Math. 46, 2000).  So it compares the images a(R) and b(R)
    (_image_cmp), finite ray and stream alike; on a stream the depth cap
    binds their common prefix, and images that agree up to it raise
    UndecidedComparisonError.  Equal words are equal without a scan, which
    on a stream would reach the cap.  Any other oracle signs a^-1 b."""
    if not isinstance(oracle, NTOrder):
        return -oracle.sign(multiply(invert(a), b))
    x, y = _image(oracle, a), _image(oracle, b)  # the images check the ranks
    return EQUAL if a == b else _image_cmp(oracle, x, y)


def in_convex_subgroup(order: NTOrder, b: BraidWord, i: int) -> bool:
    """Membership in the i-th convex level: divergence depth >= i-th depth."""
    spec = order.spec
    if not 1 <= i <= spec.m:
        raise MalformedInputError(f"level {i} out of range (spec has {spec.m})")
    depth, verdict = divergence_depth(order, b)
    if verdict is None and depth < spec.separating_depths[i - 1]:
        raise UndecidedComparisonError(order.depth_cap)
    return depth >= spec.separating_depths[i - 1]


def letter_depths(order: NTOrder) -> dict[int, int]:
    """The divergence depth of each generator letter sigma_j^+-1, by letter."""
    return {
        s: divergence_depth(order, BraidWord(order.n, (s,)))[0]
        for j in range(1, order.n)
        for s in (j, -j)
    }


def _level_patterns(order: NTOrder) -> list[tuple[int, ...]]:
    """For each separating depth, the generators j whose letters sigma_j and
    sigma_j^-1 both diverge at that depth or deeper."""
    depths = letter_depths(order)
    return [
        tuple(j for j in range(1, order.n) if min(depths[j], depths[-j]) >= d)
        for d in order.spec.separating_depths
    ]


class ChainLevel(NamedTuple):
    generator_pattern: tuple[int, ...]
    members_in_ball: int
    checked: int
    violations: int


class ChainReport(NamedTuple):
    levels: tuple[ChainLevel, ...]
    undecided_skipped: int


def convex_chain_report(order: NTOrder, sample: BallSpec) -> ChainReport:
    """Membership patterns per level, one level per separating depth in
    order, plus an exhaustive ball convexity check.

    For each level, every ball word outside the level must not lie strictly
    between the level's order-minimum and order-maximum within the ball;
    expected violation count is zero.  Two walks of the ball, each word
    transported once per walk and compared by its image (_image_cmp): the
    first finds each word's depth and, for each level it belongs to,
    updates the level's running minimum and maximum, the only images kept;
    the second counts the words outside a level that lie between them.  So
    the report holds no per-word list.  A word with an undecided depth, or
    an undecided comparison among a level's members, counts once in
    undecided_skipped; an outside word's comparisons are its own verdict
    against the ray, which is decided.
    """
    spec = order.spec
    if spec.m < 1:
        raise MalformedInputError(f"{spec.name}: chain report needs at least one depth")
    if sample.n != spec.n:
        raise MalformedInputError("ball strand count differs from spec")
    depths = spec.separating_depths
    lo: list = [None] * spec.m  # each level's order-minimum and -maximum image
    hi: list = [None] * spec.m
    members = [0] * spec.m
    words = undecided = 0
    for w in sample.words():
        image = _image(order, w)
        depth, verdict = _scan(order, spec.word, image)
        words += 1
        undecided_here = verdict is None
        for i in range(bisect_right(depths, depth)):  # the levels w belongs to
            members[i] += 1
            try:
                if lo[i] is None:
                    lo[i] = hi[i] = image
                elif _image_cmp(order, image, lo[i]) == LESS:
                    lo[i] = image
                elif _image_cmp(order, image, hi[i]) == GREATER:
                    hi[i] = image
            except UndecidedComparisonError:
                undecided_here = True
        undecided += undecided_here

    violations = [0] * spec.m
    for g in sample.words():
        image = _image(order, g)
        depth, _ = _scan(order, spec.word, image)
        for i in range(bisect_right(depths, depth), spec.m):  # the levels g is outside of
            if lo[i] is None:
                break  # no members here, nor in any deeper level
            # never undecided: g parts from the ray below d_i <= cap, where
            # every member's image still follows it
            if _image_cmp(order, lo[i], image) == LESS and _image_cmp(order, image, hi[i]) == LESS:
                violations[i] += 1

    levels = tuple(
        ChainLevel(pattern, count, words - count if count else 0, v)
        for pattern, count, v in zip(_level_patterns(order), members, violations)
    )
    return ChainReport(levels, undecided)


def soul_of(order: NTOrder) -> tuple[int, ...]:
    """The soul generators, recomputed from the chain as the outermost level
    whose nonempty pattern is pairwise non-adjacent, and checked against the
    stored value."""
    spec = order.spec
    spec.validate()
    recomputed: tuple[int, ...] = ()
    for pattern in _level_patterns(order):
        if pattern and all(b - a >= 2 for a, b in zip(pattern, pattern[1:])):
            recomputed = pattern
            break
    if recomputed != spec.soul_generators:
        raise SoulValidationError(
            f"{spec.name}: recomputed soul {list(recomputed)} != stored {list(spec.soul_generators)}"
        )
    return spec.soul_generators


class ConradWitness(NamedTuple):
    """Positive f, g with f g^k < g for every k up to the search's k_max."""

    f: BraidWord
    g: BraidWord


def is_conrad_witness(order, f: BraidWord, g: BraidWord, k_max: int) -> bool:
    """Whether f and g are positive with f g^k < g for every k up to k_max:
    the pair breaks the Conrad property, as far as k_max sees."""
    if k_max < 0:
        raise MalformedInputError(f"k_max must be non-negative, got {k_max}")
    if order.sign(f) <= 0 or order.sign(g) <= 0:
        return False
    gk = BraidWord(g.n)
    for _ in range(k_max + 1):
        if order_cmp(order, multiply(f, gk), g) != LESS:
            return False
        gk = multiply(gk, g)
    return True


def conrad_witness_search(order, k_max: int, ball: BallSpec) -> ConradWitness:
    """First pair of the ball, in ball order, violating the Conrad property up
    to k_max (is_conrad_witness).  Raises SearchFailureError when none
    exists."""
    for f in ball.words():
        for g in ball.words():
            if is_conrad_witness(order, f, g, k_max):
                return ConradWitness(f, g)
    raise SearchFailureError(
        f"no Conradian-failure witness in ball L={ball.max_length} with k_max={k_max}"
    )


class TotalityReport(NamedTuple):
    tie_words: tuple[BraidWord, ...]
    records: tuple[tuple[int, BraidWord], ...]


def totality_probe(order: NTOrder, ball: BallSpec, depth_target: int) -> TotalityReport:
    """Empirical totality of an infinite-type spec.

    (a) every nontrivial ball word must diverge from the ray before the cap
    (words that do not are reported as ties / degeneracy);
    (b) small elements: a deterministic candidate family (the ball words,
    then the generators sigma_i^+-1 and sigma_i^+-2 conjugated by ball words)
    is scanned for braids of ever larger divergence depth, up to depth_target;
    each new deepest (depth, word) is a record, the deepest last.
    """
    spec = order.spec
    if spec.type_tag == "finite":
        raise MalformedInputError(f"{spec.name}: totality probe needs an infinite-type spec")
    if depth_target < 0:
        raise MalformedInputError(f"depth target must be non-negative, got {depth_target}")
    if ball.n != spec.n:
        raise MalformedInputError("ball strand count differs from spec")
    ties: list[BraidWord] = []
    records: list[tuple[int, BraidWord]] = []
    best = -1

    def consider(w: BraidWord, tie_eligible: bool) -> None:
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

    for g in ball.words():
        if best >= depth_target:
            break
        for i in range(1, spec.n):
            for e in (1, -1, 2, -2):
                consider(conjugate(sigma(spec.n, i, e), invert(g)), tie_eligible=False)

    return TotalityReport(tuple(ties), tuple(records))


# --- spec file round trip ---------------------------------------------------


def format_geodesic_spec(spec: GeodesicSpec) -> str:
    if isinstance(spec.word, FreeWord):
        word_text = str(spec.word)
    else:
        word_text = format_infinite_word(spec.word)
    lines = [
        f"name={spec.name}",
        f"n={spec.n}",
        f"type={spec.type_tag}",
        f"word={word_text}",
        f"depths={' '.join(str(d) for d in spec.separating_depths)}",
        f"soul={' '.join(str(i) for i in spec.soul_generators)}",
    ]
    return "\n".join(lines) + "\n"


def _spec_integers(fields: Mapping[str, str], key: str) -> tuple[int, ...]:
    """The whitespace-separated integers of one spec field (none if absent)."""
    text = fields.get(key, "")
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise MalformedInputError(f"spec field {key}= must be integers, got {text!r}") from None


def parse_geodesic_spec(text: str) -> GeodesicSpec:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedInputError(f"bad spec line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        name = fields["name"]
        n_text = fields["n"]
        type_tag = fields["type"]
    except KeyError as exc:
        raise MalformedInputError(f"spec file missing field {exc}") from None
    try:
        n = int(n_text)
    except ValueError:
        raise MalformedInputError(f"spec field n= must be an integer, got {n_text!r}") from None
    if type_tag not in ("finite", "infinite", "full_infinite"):
        raise MalformedInputError(f"unknown type {type_tag!r}")
    word_text = fields.get("word", "")
    word = parse_free_word(word_text, n) if type_tag == "finite" else parse_infinite_word(word_text, n)
    spec = GeodesicSpec(name, word, _spec_integers(fields, "depths"), _spec_integers(fields, "soul"))
    if spec.type_tag != type_tag:
        message = f"spec field type={type_tag} does not match its word and depths ({spec.type_tag})"
        raise MalformedInputError(message)
    spec.validate()
    return spec
