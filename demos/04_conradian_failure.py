#!/usr/bin/env python3
"""Conradian souls and the witnesses that break the Conrad property.

An ordering is Conradian when for all positive f, g some power k makes
f g^k > g.  Ray orders always fail this outside their soul: the canonical
witness pairs (s_v^-1 s_u, s_u) ride the identity
s_v s_u s_v^-1 = s_u^-1 s_v s_u for adjacent twists.  Restricted to the
abelian soul the property holds at k = 1 already.
"""

import random

from braidorders import (
    BallSpec,
    BraidWord,
    catalog_order,
    conrad_witness_search,
    invert,
    multiply,
)

PAIRS = {
    "dehornoy_3": ((-2, 1), (1,)),
    "dehornoy_4": ((-2, 1), (1,)),
    "b4_b": ((-3, 2), (2,)),
    "b4_c": ((-3, 2), (2,)),
    "b6_cx": ((-3, 4), (4,)),
}
K_MAX = 20

for name, (f_letters, g_letters) in PAIRS.items():
    order = catalog_order(name)
    hint = [(BraidWord(order.n, f_letters), BraidWord(order.n, g_letters))]
    w = conrad_witness_search(order, K_MAX, BallSpec(order.n, 2), priority_pairs=hint)
    print(f"{name}: f = [{w.f}], g = [{w.g}] with f g^k < g for all k <= {K_MAX}")

# inside the soul of b6_cx no such pair exists: f g > g whenever f, g positive
order = catalog_order("b6_cx")
soul = list(order.spec.soul_generators)
rng = random.Random(0)
violations = 0
for _ in range(300):
    f = BraidWord(6, tuple(i for i in soul for _ in range(rng.randrange(0, 3))))
    g = BraidWord(6, tuple(i for i in soul for _ in range(rng.randrange(1, 3))))
    if not f.letters:
        continue
    if order.sign(multiply(invert(g), multiply(f, g))) <= 0:
        violations += 1
print(f"soul of b6_cx = {soul}: Conrad property violations in 300 samples: {violations}")
