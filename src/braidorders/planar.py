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
from itertools import islice, zip_longest

from .freewords import Ray

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
    germ_order_reversed: bool
    artin_mirrored: bool
    angle_flipped: bool

    def cycle(self) -> tuple[int, ...]:
        germs: list[int] = [TERMINAL]
        indices = range(1, self.n + 1) if self.germ_order_reversed else range(self.n, 0, -1)
        for i in indices:
            germs.extend((i, -i))
        return tuple(germs)

    @cached_property
    def _places(self) -> tuple[int, ...]:
        """Place of each germ in the cycle, indexed by germ + n: read-only,
        built once per convention, read by the verdict of every sign."""
        places = [0] * (2 * self.n + 1)
        for p, g in enumerate(self.cycle()):
            places[g + self.n] = p
        return tuple(places)


def _verdict(gu: int, gv: int, arrival: int, conv: GermConvention) -> int:
    """The angle verdict of a settled divergence: the next germs of the two
    rays in the cyclic order cut at the arrival germ."""
    if gu == gv == TERMINAL:
        return EQUAL
    if gu == gv:
        raise AssertionError("divergence scan stopped on equal letters")
    # at the basepoint the arrival is TERMINAL, at position 0: the cycle is
    # then cut at the boundary west germ, just before it, and positions read
    # as listed
    places, n = conv._places, conv.n
    size = len(places)
    a = places[arrival + n]
    verdict = LESS if (places[gu + n] - a) % size < (places[gv + n] - a) % size else GREATER
    return -verdict if conv.angle_flipped else verdict


def divergence(u: Ray, v: Ray, conv: GermConvention, depth_cap: int | None) -> tuple[int, int | None]:
    """(common prefix length, verdict) from one forward scan over the letters
    of both rays.

    The scan stops at the first differing germ (TERMINAL where a finite word
    ends), at the end of both words, or after depth_cap common letters,
    reading no letter past them; a cap of None never stops it, as for two
    finite words, which always separate.  Stopped at the cap, the verdict is
    None and the length the cap.
    """
    d = 0
    arrival = TERMINAL  # the germ both rays arrived by
    for gu, gv in islice(zip_longest(u, v, fillvalue=TERMINAL), depth_cap):
        if gu != gv:
            break
        d += 1
        arrival = -gu
    else:
        if depth_cap is not None and d >= depth_cap:
            return depth_cap, None
        gu = gv = TERMINAL  # both words ended together
    return d, _verdict(gu, gv, arrival, conv)
