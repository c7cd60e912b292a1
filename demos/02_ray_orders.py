#!/usr/bin/env python3
"""Orders from the braid action on a ray through the punctured disk.

A geodesic from the boundary basepoint is encoded as a reduced word in the
puncture loops x_1 .. x_n.  A braid acts by substitution on the loops; the
order compares the moved ray against the original by the angle at which they
leave the basepoint (first-divergence germ comparison in the planar cover).

The orientation conventions are not guessed: calibrate_conventions searches
the finite flag space until the ray order reproduces handle reduction on an
entire ball, and the catalog freezes the result.
"""

from braidorders import (
    BallSpec,
    BraidWord,
    DehornoyOrder,
    FreeWord,
    GeodesicSpec,
    NTOrder,
    agreement_radius,
    calibrate_conventions,
    catalog_order,
)
from braidorders.nt import moved_order


def image(b, letters):
    """b's image of a finite loop word: the word of the moved ray, read whole."""
    loop = NTOrder(GeodesicSpec("loop", FreeWord(b.n, letters)))
    return FreeWord(b.n, tuple(moved_order(loop, b).spec.word))


# --- the substitution action ---------------------------------------------------

for j in (1, 2, 3):
    print(f"sigma1: x{j} -> {image(BraidWord(3, (1,)), (j,))}")

# braid relation holds on the nose: both sides move every generator alike
lhs, rhs = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
assert all(image(lhs, (j,)) == image(rhs, (j,)) for j in (1, 2, 3))
print("map(s1 s2 s1) == map(s2 s1 s2)")

# --- calibration ---------------------------------------------------------------

result = calibrate_conventions(3, 4)
conv = result.convention
print(
    f"calibrated: word [{result.word}], fan reversed={conv.germ_order_reversed},"
    f" mirrored={conv.artin_mirrored}, flipped={conv.angle_flipped}"
    f" ({len(result.matches)} equivalent matches)"
)

# --- the frozen ray order vs handle reduction -----------------------------------

order = catalog_order("dehornoy_3")
report = agreement_radius(DehornoyOrder(3), order, BallSpec(3, 6))
print(f"agreement with handle reduction on ball L=6: radius {report.radius}, witness {report.witness}")

# --- watching a ray move ---------------------------------------------------------

for j in (1, 3, 5):
    beta = BraidWord(3, (-2,) * j + (1,))
    moved = image(beta, order.spec.word.letters)
    print(f"(s2^-{j} s1).ray = {moved}   (winds {j}x around the far punctures)")
