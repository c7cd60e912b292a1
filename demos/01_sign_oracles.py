#!/usr/bin/env python3
"""Braid words and the handle-reduction sign oracle.

A braid on n strands is a word in the generators sigma_1 .. sigma_{n-1},
written as signed integers: [1, -2, 1] is sigma1 sigma2^-1 sigma1.  Handle
reduction rewrites a word until its lowest generator index occurs with a
single sign; that sign orders the whole group.
"""

from braidorders import (
    BallSpec,
    BraidWord,
    DehornoyOrder,
    dehornoy_sign,
    handle_reduce,
    is_trivial_braid,
    order_cmp,
)

SIGN = {-1: "negative", 0: "zero", 1: "positive"}

# --- handle reduction in action ---------------------------------------------

w = BraidWord(3, (-1, 2, 1))
hf = handle_reduce(w)
print(f"handle_reduce({w}) -> {hf.word}   main index {hf.main_index}, sign {SIGN[hf.main_sign]}")

# the defining relations reduce to nothing
print("relator s1 s2 s1 s2^-1 s1^-1 s2^-1 trivial:", is_trivial_braid(BraidWord(3, (1, 2, 1, -2, -1, -2))))

# --- the classic sign facts ---------------------------------------------------

# both s2^-1 s1 and s1 are positive ...
print("sign(s2^-1 s1) =", SIGN[dehornoy_sign(BraidWord(3, (-2, 1)))])
print("sign(s1)       =", SIGN[dehornoy_sign(BraidWord(3, (1,)))])

# ... yet (s2^-1 s1) s1^k stays below s1 for every k: the ordering is not
# Conradian (see demo 04)
for k in (0, 1, 5, 25, 50):
    w = BraidWord(3, (-2, 1) + (1,) * k)
    print(f"  (s2^-1 s1) s1^{k:<2} < s1 :", order_cmp(DehornoyOrder(3), w, BraidWord(3, (1,))) < 0)

# --- sign census over a ball ---------------------------------------------------

ball = BallSpec(3, 4)
counts = {-1: 0, 0: 0, 1: 0}
for w in ball.words():
    counts[dehornoy_sign(w)] += 1
print(f"ball L=4 in B_3: {ball.count()} words ->", {SIGN[s]: c for s, c in counts.items()})
