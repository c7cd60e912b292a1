#!/usr/bin/env python3
"""Convex subgroup chains read off divergence depths.

A braid lies in the i-th convex level of a ray order when its action fixes
the ray's word past the i-th separating depth.  For the catalog entries the
levels are nested generator patterns with no sampled convexity violations.
They are not always subgroups: in b4_b level 1, sigma_3^-2 and
sigma_3^2 sigma_2^-1 are members but their product sigma_2^-1 is not.
"""

from braidorders import (
    BallSpec,
    BraidWord,
    catalog_order,
    convex_chain_report,
    divergence_depth,
    soul_of,
)
from braidorders.catalog import search_chain_words

# --- generator divergence depths -------------------------------------------------

for name in ("dehornoy_4", "b4_b", "b4_c", "b6_cx"):
    order = catalog_order(name)
    spec = order.spec
    deaths = {
        j: divergence_depth(order, BraidWord(spec.n, (j,)))[0]
        for j in range(1, spec.n)
    }
    print(f"{name}: word [{spec.word}]  depths {spec.separating_depths}  generator deaths {deaths}")

# --- chain reports ---------------------------------------------------------------

for name in ("dehornoy_4", "b4_a", "b4_b", "b4_c", "b6_cx"):
    order = catalog_order(name)
    report = convex_chain_report(order, BallSpec(order.n, 3))
    chain = " > ".join(
        "{" + ",".join(f"s{j}" for j in lv.generator_pattern) + "}" for lv in report.levels
    )
    print(f"{name}: levels {chain}  violations {report.total_violations}")
    print(f"   soul (validated): {list(soul_of(order))}")

# --- the search that produced the committed words ---------------------------------

hits = search_chain_words(4, death_order=(2, 3, 1), lengths=(4,))
print(f"search for B4 words with death order s2 < s3 < s1: {len(hits)} hits at length 4")
for letters, depths in hits:
    print("   word", letters, "depths", depths)
