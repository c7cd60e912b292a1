#!/usr/bin/env python3
"""Convex subgroup chains read off divergence depths.

A braid lies in the i-th convex level of a ray order when its action fixes
the ray's word past the i-th separating depth.  For the catalog entries the
levels are nested generator patterns with no sampled convexity violations.
They are not always subgroups: in b4_b level 1, sigma_3^-2 and
sigma_3^2 sigma_2^-1 are members but their product sigma_2^-1 is not.
"""

import itertools

from braidorders import (
    BallSpec,
    BraidWord,
    FreeWord,
    GeodesicSpec,
    MalformedInputError,
    NTOrder,
    catalog_order,
    convex_chain_report,
    divergence_depth,
    soul_of,
)
from braidorders.nt import letter_depths


def search_chain_words(n, death_order, lengths):
    """Words whose generators die symmetrically in the requested order.

    Returns (letters, separating_depths) pairs; depths are the deaths of the
    second dying generator onward plus the word length, so that membership at
    level i means surviving past the i-th death.  This is the procedure that
    produced the committed b4_b, b4_c and b6_cx words.
    """
    if sorted(death_order) != list(range(1, n)):
        raise MalformedInputError("death_order must list every generator once")
    alphabet = [k for i in range(1, n + 1) for k in (i, -i)]
    results = []
    for L in lengths:
        for tup in itertools.product(alphabet, repeat=L):
            if any(tup[i] == -tup[i + 1] for i in range(L - 1)):
                continue
            deaths = letter_depths(NTOrder(GeodesicSpec("search", FreeWord(n, tup))))
            if any(deaths[j] != deaths[-j] for j in range(1, n)):
                continue
            seq = [deaths[j] for j in death_order]
            if seq != sorted(seq) or len(set(seq)) != len(seq) or seq[-1] >= L:
                continue
            depths = tuple(seq[1:]) + (L,)
            results.append((tup, depths))
    return results


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
    violations = sum(lv.violations for lv in report.levels)
    print(f"{name}: levels {chain}  violations {violations}")
    print(f"   soul (validated): {list(soul_of(order))}")

# --- the search that produced the committed words ---------------------------------

hits = search_chain_words(4, death_order=(2, 3, 1), lengths=(4,))
print(f"search for B4 words with death order s2 < s3 < s1: {len(hits)} hits at length 4")
for letters, depths in hits:
    print("   word", letters, "depths", depths)
