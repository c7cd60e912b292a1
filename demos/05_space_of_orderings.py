#!/usr/bin/env python3
"""Walking the space of orderings: agreement balls and convergence scans.

Two orderings are close when their signs agree on a large ball.  Conjugating
a ray order by s^-j u drags it back toward itself as j grows; re-ordering a
rank-k soul by integer slopes does the same for k >= 2.  The limit probe
watches where the conjugates of the rank-3 example actually head: toward a
permuted chain, not the original ordering.
"""

from fractions import Fraction

from braidorders import (
    BallSpec,
    BraidWord,
    DehornoyOrder,
    agreement_radius,
    catalog_order,
    converge_conjugates_experiment,
    converge_extensions_experiment,
    limit_probe_experiment,
    small_positive_search,
    totality_probe,
)

# --- distances shrink along the conjugate sequence --------------------------------

base = DehornoyOrder(3)
from braidorders import ConjugatedOrder

for j in (1, 3, 5, 7):
    conj = ConjugatedOrder(base, BraidWord(3, (-2,) * j + (1,)))
    report = agreement_radius(base, conj, BallSpec(3, 6))
    # 2^-radius; without a witness 0, the ball's lower bound
    d = Fraction(0) if report.witness is None else Fraction(1, 2**report.radius)
    print(f"dist(order, conjugate by s2^-{j} s1) <= {d}")

# the natural conjugators sit just above the soul
small = small_positive_search(base, [2], BallSpec(3, 3))
print(f"smallest positive outside <s2> in ball L=3: [{small}]")

# --- conjugate convergence records --------------------------------------------------

rows = converge_conjugates_experiment(
    catalog_order("dehornoy_3"), (2, BraidWord(3, (1,))), range(1, 9), BallSpec(3, 6)
)
print("conjugates of dehornoy_3:")
for row in rows:
    print(f"  j={row.j}: radius {row.radius}, distinctness witness [{row.witness}]")

# --- extension families for rank >= 2 souls -----------------------------------------

ext_rows = converge_extensions_experiment(catalog_order("b6_cx"), range(2, 8), BallSpec(6, 3))
print("slope extensions of b6_cx (soul rank 3):")
for row in ext_rows:
    print(f"  M={row.M}: weights {row.weights}, radius {row.radius}, soul witness {row.soul_witness_vector}")

# --- where do conjugates of b6_cx converge? -----------------------------------------

probe_rows = limit_probe_experiment(
    catalog_order("b6_cx"), (3, BraidWord(6, (4,))), range(1, 13), BallSpec(6, 2)
)
print("limit probe, conjugating b6_cx by s3^-N s4 (evidence only, inconclusive by design):")
for row in [r for r in probe_rows if r.differs][:4]:
    trail = "".join("+" if s > 0 else "-" for s in row.signs)
    print(f"  probe [{row.probe}]: base {row.base_sign:+d}, conjugate signs {trail} -> settles at {row.stable_sign:+d}")

# --- infinite type: nothing fixes the ray, small elements go arbitrarily deep --------

rep = totality_probe(catalog_order("sturmian_3"), BallSpec(3, 5), 20)
print(
    f"sturmian_3 totality: ties {len(rep.tie_words)}, deepest small element [{rep.records[-1][1]}]"
    f" at depth {rep.records[-1][0]}"
)
