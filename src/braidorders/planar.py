"""Angle comparison of rays through the planar cover of the punctured disk.

A finite word in F_n is read as a path class from the boundary basepoint to a
fixed endpoint just east of it; an infinite word is a ray.  Lifting to the
universal cover, every vertex sees the same counterclockwise cyclic order of
2n+1 germs: the terminal exit T plus both directions of every loop.  Two
distinct rays diverge at a vertex, and their next germs, compared in the
cyclic order cut at the arrival germ (at the basepoint: cut at the boundary
west position), decide which ray exits at the larger boundary angle.

The orientation of the whole picture is not an a priori choice here: the three
flags of GermConvention, the same for every B_n, are frozen as FROZEN_CONVENTION
by calibrating against handle reduction (see calibration in the catalog module).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, zip_longest

from .errors import Value
from .freewords import Ray

LESS, EQUAL, GREATER = -1, 0, 1

TERMINAL = 0  # germ label for "exit to the boundary endpoint"

DEFAULT_DEPTH_CAP = 512


class GermConvention(Value):
    """Orientation flags of the cyclic germ order at every cover vertex.

    The counterclockwise cycle starts at the terminal germ; with
    ``germ_order_reversed`` the petal fan is enumerated from x_1 up instead of
    from x_n down.  ``artin_mirrored`` swaps the substitution rules of a
    generator and its inverse; ``angle_flipped`` inverts every verdict.
    """

    germ_order_reversed: bool
    artin_mirrored: bool
    angle_flipped: bool

    def __init__(self, germ_order_reversed, artin_mirrored, angle_flipped):
        self.__dict__.update(germ_order_reversed=germ_order_reversed, artin_mirrored=artin_mirrored, angle_flipped=angle_flipped)


# calibrated against handle reduction at n = 3, 4, 5 and 6: the same flags at every rank
FROZEN_CONVENTION = GermConvention(True, False, True)


@lru_cache(maxsize=None)
def _places(germ_order_reversed: bool, n: int) -> tuple[int, ...]:
    """Place of each germ in the cycle, indexed by germ + n: read-only,
    built once per fan direction and rank, read by the verdict of every sign."""
    fan = range(1, n + 1) if germ_order_reversed else range(n, 0, -1)
    cycle = [TERMINAL] + [g for i in fan for g in (i, -i)]
    places = [0] * (2 * n + 1)
    for p, g in enumerate(cycle):
        places[g + n] = p
    return tuple(places)


def _verdict(gu: int, gv: int, arrival: int, conv: GermConvention, n: int) -> int:
    """The angle verdict of a settled divergence of two rays of rank n: their
    next germs in the cyclic order cut at the arrival germ."""
    if gu == gv == TERMINAL:
        return EQUAL
    if gu == gv:
        raise AssertionError("divergence scan stopped on equal letters")
    # at the basepoint the arrival is TERMINAL, at position 0: the cycle is
    # then cut at the boundary west germ, just before it, and positions read
    # as listed
    places = _places(conv.germ_order_reversed, n)
    size = 2 * n + 1
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
    return d, _verdict(gu, gv, arrival, conv, u.n)
