"""Angle comparison of rays through the planar cover of the punctured disk.

A finite word in F_n is read as a path class from the boundary basepoint to a
fixed endpoint just east of it; an infinite word is a ray.  Lifting to the
universal cover, every vertex sees the same counterclockwise cyclic order of
2n+1 germs: the terminal exit T plus both directions of every loop.  Two
distinct rays diverge at a vertex, and their next germs, compared in the
cyclic order cut at the arrival germ (at the basepoint: cut at the boundary
west position), decide which ray exits at the larger boundary angle.

The orientation of the whole picture is not an a priori choice here: the three
flags of GermConvention are frozen by calibrating against handle reduction
(see calibration in the catalog module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .errors import UndecidedComparisonError
from .freewords import FreeLetters, FreeWord, Ray, ray_prefix

LESS, EQUAL, GREATER = -1, 0, 1

TERMINAL = 0  # germ label for "exit to the boundary endpoint"

DEFAULT_DEPTH_CAP = 512


@dataclass(frozen=True)
class GermConvention:
    """Cyclic germ order at every cover vertex plus orientation flags.

    The counterclockwise cycle starts at the terminal germ; with
    ``germ_order_reversed`` the petal fan is enumerated from x_1 up instead of
    from x_n down.  ``artin_mirrored`` swaps the substitution rules of a
    generator and its inverse; ``angle_flipped`` inverts every verdict.
    """

    n: int
    germ_order_reversed: bool = False
    artin_mirrored: bool = False
    angle_flipped: bool = False

    def cycle(self) -> tuple[int, ...]:
        germs: list[int] = [TERMINAL]
        indices = range(1, self.n + 1) if self.germ_order_reversed else range(self.n, 0, -1)
        for i in indices:
            germs.extend((i, -i))
        return tuple(germs)

    @cached_property
    def positions(self) -> Mapping[int, int]:
        """Place of each germ in the cycle, built once per convention."""
        return MappingProxyType({g: p for p, g in enumerate(self.cycle())})


def _settled(word: Ray, probe: FreeLetters, d: int) -> bool:
    """The probe shows what the word does after its first d letters."""
    return len(probe) > d or (isinstance(word, FreeWord) and len(word.letters) <= d)


def _diverge(u: Ray, v: Ray, depth_cap: int | None) -> tuple[int, FreeLetters, FreeLetters]:
    """(d, pu, pv): the length d of the longest common prefix of two rays,
    with probes that show each ray's next letter after d, or its end.

    The probe window starts at 32 letters and doubles; with a depth cap it
    stops at cap + 1 letters, and d may then reach the cap unsettled.
    """
    window = 32
    while True:
        pu = ray_prefix(u, window)
        pv = ray_prefix(v, window)
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


def planar_cmp(
    u: Ray,
    v: Ray,
    conv: GermConvention,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> int:
    """LESS / EQUAL / GREATER by boundary angle; greater means larger angle.

    Raises UndecidedComparisonError(depth_cap) when two streams agree beyond
    the cap; two finite words always separate, so the cap never binds them.
    """
    _, verdict = divergence(u, v, conv, depth_cap)
    if verdict is None:
        raise UndecidedComparisonError(depth_cap)
    return verdict


def _verdict(d: int, pu: FreeLetters, pv: FreeLetters, conv: GermConvention) -> int:
    """The angle verdict from the probes of a settled divergence at d."""
    gu = pu[d] if d < len(pu) else TERMINAL
    gv = pv[d] if d < len(pv) else TERMINAL
    if gu == gv == TERMINAL:
        return EQUAL
    assert gu != gv, "divergence scan stopped on equal letters"
    pos = conv.positions
    if d == 0:
        # at the basepoint the cycle is cut at the boundary west germ,
        # which sits just before TERMINAL: positions read as listed
        pu_pos, pv_pos = pos[gu], pos[gv]
    else:
        size = len(pos)
        a = pos[-pu[d - 1]]  # the arrival germ
        pu_pos = (pos[gu] - a) % size
        pv_pos = (pos[gv] - a) % size
    verdict = LESS if pu_pos < pv_pos else GREATER
    return -verdict if conv.angle_flipped else verdict


def divergence(
    u: Ray, v: Ray, conv: GermConvention, depth_cap: int = DEFAULT_DEPTH_CAP
) -> tuple[int, int | None]:
    """(common prefix length, verdict) from one scan.

    Two finite words always separate, so their scan is uncapped.  A scan
    with a stream stops at the cap; the verdict is then None and the length
    the cap.
    """
    both_finite = isinstance(u, FreeWord) and isinstance(v, FreeWord)
    d, pu, pv = _diverge(u, v, None if both_finite else depth_cap)
    if d >= depth_cap and not both_finite:
        return depth_cap, None
    return d, _verdict(d, pu, pv, conv)


def common_prefix_length(u: Ray, v: Ray, depth_cap: int = DEFAULT_DEPTH_CAP) -> tuple[int, bool]:
    """(length of the longest common prefix, decided?).

    decided is False when the words agree all the way to the cap.
    """
    d, _, _ = _diverge(u, v, depth_cap)
    if d >= depth_cap:
        return depth_cap, False
    return d, True
