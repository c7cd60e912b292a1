"""The forward letter scan against the probe-window scan it replaced.

The reference below is the earlier implementation, kept as it was: every
ray answered length requests through a prefix formula (or a prefix
supplier), and the divergence scan read a 32-letter window of each ray,
doubling it until both rays showed their next letter after the common
prefix.  The reference twin of a stream's image is made by the earlier
stream transport, which folded a whole input prefix and cut the letters
bounded cancellation leaves uncertain.  The library now reads each ray as an iterator over its letters in
one forward scan; on every pair below both must give the same common prefix
length and the same verdict.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import pytest

from braidorders import (
    FROZEN_CONVENTION,
    EventuallyPeriodic,
    FreeWord,
    GermConvention,
    Sturmian,
)
from braidorders.catalog import STURMIAN_SLOPE
from braidorders.freewords import Custom
from braidorders.nt import GeodesicSpec, _letter_tables
from braidorders.planar import EQUAL, GREATER, LESS, TERMINAL, divergence

from artin_reference import substitute
from test_freewords import random_free_word, ray_prefix
from words import moved_spec, random_word

# --- reference: prefix formulas and the windowed scan ------------------------

# the letters the earlier stream transport cut after every stage
SINGLE_LETTER_BOUND = 3


@dataclass(frozen=True)
class RefSupplier:
    """A coherent prefix supplier: supplier(m) extends supplier(k), k <= m."""

    n: int
    supplier: Callable[[int], tuple]

    def prefix(self, length):
        out = self.supplier(length)
        assert len(out) >= length
        return tuple(out[:length])


def ref_prefix(word, length):
    if isinstance(word, FreeWord):
        return word.letters[:length]
    if isinstance(word, EventuallyPeriodic):
        out = list(word.head.letters)
        while len(out) < length:
            out.extend(word.period.letters)
        return tuple(out[:length])
    if isinstance(word, Sturmian):
        out = []
        prev = 0
        for k in range(length):
            cur = word.slope.floor_times(k + 1)
            out.append(word.letter_b if cur - prev == 1 else word.letter_a)
            prev = cur
        return tuple(out)
    return word.prefix(length)


def ref_blocks(n, head, block_a, block_b):
    choices = Sturmian(2, STURMIAN_SLOPE, 1, 2)
    shortest = min(len(block_a), len(block_b))

    def supplier(length):
        count = -(-max(0, length - len(head)) // shortest)
        out = list(head)
        for k in ref_prefix(choices, count):
            out.extend(block_a if k == 1 else block_b)
        return tuple(out[:length])

    return RefSupplier(n, supplier)


def ref_certified_image(b, letters, mirrored):
    """The earlier stream transport: the input prefix folded whole through
    each braid letter, right to left, dropping the last SINGLE_LETTER_BOUND
    letters after every stage."""
    for letter in reversed(b.letters):
        letters = substitute(letters, _letter_tables(b.n, mirrored)[letter])
        letters = letters[: len(letters) - SINGLE_LETTER_BOUND]
    return letters


def ref_image(b, word, mirrored):
    image = ()
    taken = 0

    def supplier(length):
        nonlocal image, taken
        while len(image) < length:
            taken = max(2 * taken, length // 4 + SINGLE_LETTER_BOUND * len(b.letters) + 8)
            certified = ref_certified_image(b, ref_prefix(word, taken), mirrored)
            assert len(certified) >= len(image)
            image = certified
        return image[:length]

    return RefSupplier(b.n, supplier)


def _settled(word, probe, d):
    return len(probe) > d or (isinstance(word, FreeWord) and len(word.letters) <= d)


def ref_diverge(u, v, depth_cap):
    window = 32
    while True:
        pu = ref_prefix(u, window)
        pv = ref_prefix(v, window)
        limit = min(len(pu), len(pv))
        d = 0
        while d < limit and pu[d] == pv[d]:
            d += 1
        if depth_cap is not None and d >= depth_cap:
            return d, pu, pv
        if _settled(u, pu, d) and _settled(v, pv, d):
            return d, pu, pv
        window *= 2
        if depth_cap is not None:
            window = min(window, depth_cap + 1)


def ref_germ_cycle(conv, n):
    """The counterclockwise germ cycle from TERMINAL: x_i, x_i^-1 for i from
    n down, or from 1 up when the fan is reversed."""
    germs = [TERMINAL]
    for i in range(1, n + 1) if conv.germ_order_reversed else range(n, 0, -1):
        germs.extend((i, -i))
    return tuple(germs)


def ref_verdict(d, pu, pv, conv, n):
    gu = pu[d] if d < len(pu) else TERMINAL
    gv = pv[d] if d < len(pv) else TERMINAL
    if gu == gv == TERMINAL:
        return EQUAL
    pos = {g: p for p, g in enumerate(ref_germ_cycle(conv, n))}
    if d == 0:
        pu_pos, pv_pos = pos[gu], pos[gv]
    else:
        size = len(pos)
        a = pos[-pu[d - 1]]
        pu_pos = (pos[gu] - a) % size
        pv_pos = (pos[gv] - a) % size
    verdict = LESS if pu_pos < pv_pos else GREATER
    return -verdict if conv.angle_flipped else verdict


def ref_divergence(u, v, conv, depth_cap):
    d, pu, pv = ref_diverge(u, v, depth_cap)
    if depth_cap is not None and d >= depth_cap:
        return depth_cap, None
    return d, ref_verdict(d, pu, pv, conv, u.n)


def ref_common_prefix_length(u, v, depth_cap):
    d, _, _ = ref_diverge(u, v, depth_cap)
    if d >= depth_cap:
        return depth_cap, False
    return d, True


# --- the rays: each library ray with its reference twin ----------------------


def streams(specs):
    """name -> (library stream, reference twin); the block streams' twins
    rebuild the catalog's blocks through the reference supplier."""
    periodic = EventuallyPeriodic(FreeWord(3, (-1,)), FreeWord(3, (2, 3, -1)))
    out = {
        "periodic": (periodic, periodic),
        "sturmian_3": (specs["sturmian_3"].word, specs["sturmian_3"].word),
        "mixed_4": (specs["mixed_4"].word, ref_blocks(4, (-1,), (2, 3, 4), (3, 2, 4))),
    }
    for n in (4, 5, 6):
        forward = tuple(range(1, n + 1))
        twin = ref_blocks(n, (), forward, forward[::-1])
        out[f"sturmian_{n}"] = (specs[f"sturmian_{n}"].word, twin)
    return out


def _bend(letters, n):
    """The word with its last letter replaced by a different letter that
    keeps it reduced."""
    if not letters:
        return letters
    last = letters[-1]
    before = letters[-2] if len(letters) > 1 else 0
    for k in itertools.chain.from_iterable((i, -i) for i in range(1, n + 1)):
        if k != last and k != -before:
            return letters[:-1] + (k,)
    raise AssertionError("no replacement letter")


def pairs(specs):
    """(label, (u, v), (ref_u, ref_v)) for every kind of pair the scan meets:
    finite/finite (random, equal, proper prefix), finite/stream and
    stream/stream, with common prefixes on both sides of each window and cap."""
    rng = random.Random(20240817)
    out = []
    for _ in range(150):
        n = rng.randrange(2, 7)
        u = random_free_word(rng, n, rng.randrange(0, 80))
        cut = rng.randrange(0, len(u) + 1)
        tail = random_free_word(rng, n, rng.randrange(0, 20)).letters
        v = FreeWord(n, u.letters[:cut] + tail)
        w = random_free_word(rng, n, rng.randrange(0, 12))
        for label, (a, b) in (
            ("random", (u, w)),
            ("shared", (u, v)),
            ("equal", (u, FreeWord(n, u.letters))),
            ("prefix", (FreeWord(n, u.letters[:cut]), u)),
        ):
            out.append((f"finite/finite {label}", (a, b), (a, b)))
            out.append((f"finite/finite {label}", (b, a), (b, a)))
    depths = (0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 64, 100, 511, 512, 513)
    for name, (stream, twin) in streams(specs).items():
        n = stream.n
        letters = ref_prefix(twin, 520)
        for k in depths:
            for head in (letters[:k], _bend(letters[:k], n)):
                finite = FreeWord(n, head)
                out.append((f"finite/{name}", (finite, stream), (finite, twin)))
                out.append((f"{name}/finite", (stream, finite), (twin, finite)))
            # a stream that follows this one for k letters, then turns off
            turn = next(p for p in range(1, n + 1) if p != letters[k] and -p not in letters[k - 1 : k])
            other = EventuallyPeriodic(FreeWord(n, letters[:k]), FreeWord(n, (turn,)))
            out.append((f"periodic/{name}", (other, stream), (other, twin)))
        conv = FROZEN_CONVENTION
        spec = GeodesicSpec(name, stream)
        for _ in range(8):
            b = random_word(rng, n, rng.randrange(1, 5))
            image = moved_spec(b, spec, conv).word
            twin_image = ref_image(b, twin, conv.artin_mirrored)
            # only pairs that separate: a scan without its cap stop must
            # fail these checks, not run forever
            if ref_common_prefix_length(twin, twin_image, 1024)[1]:
                out.append((f"{name}/image", (stream, image), (twin, twin_image)))
                out.append((f"image/{name}", (image, stream), (twin_image, twin)))
    return out


def test_stream_letters_match_prefix_formulas(specs):
    for name, (stream, twin) in streams(specs).items():
        assert ray_prefix(stream, 600) == ref_prefix(twin, 600), name
        assert ray_prefix(stream, 7) == ref_prefix(twin, 7), name


@pytest.mark.parametrize("depth_cap", [4, 16, 512])
def test_divergence_matches_window_scan(specs, depth_cap):
    seen = set()
    for label, (u, v), (ref_u, ref_v) in pairs(specs):
        n = u.n
        # two finite words also scan uncapped, as a finite ray order scans them
        finite = isinstance(u, FreeWord) and isinstance(v, FreeWord)
        conventions = (FROZEN_CONVENTION, GermConvention(False, False, False))
        for conv, cap in itertools.product(conventions, (depth_cap, None)):
            if cap is None and not finite:
                continue
            got = divergence(u, v, conv, cap)
            assert got == ref_divergence(ref_u, ref_v, conv, cap), (label, u, v)
            seen.add((label.split()[0], got[1]))
    kinds = {kind for kind, _ in seen}
    assert {"finite/finite", "finite/mixed_4", "sturmian_4/image", "periodic/sturmian_3"} <= kinds
    verdicts = {verdict for _, verdict in seen}
    assert verdicts == {LESS, EQUAL, GREATER, None}


def test_scan_reads_no_letter_past_cap(specs):
    # streams that hold exactly depth_cap letters: the scan must stop at
    # the cap without asking for another one
    for depth_cap in (1, 4, 16, 512):
        letters = ray_prefix(specs["sturmian_3"].word, depth_cap)
        u = Custom(3, lambda: iter(letters), label="short")
        v = Custom(3, lambda: iter(letters), label="short")
        assert divergence(u, v, FROZEN_CONVENTION, depth_cap) == (depth_cap, None)
