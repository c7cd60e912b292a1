"""The library's internal correctness checks survive ``python -O``.

``-O`` strips ``assert`` statements, so the checks that guard a sign are
written as explicit raises.  A subprocess under ``-O`` signs a word whose
handle reduction is patched to leave mixed signs on its main index, settles
a divergence on two equal germs, and builds a braid word with a ``bool``
letter, one with a non-integer strand count, a Sturmian word whose slope is
outside (0, 1), streams and Z^k orders with a non-integer field, a slope
whose tie break is no ZkLex, a non-integer floor_times argument, a
non-integer depth cap, and combinators, specs and Z^k orders built from
parts of the wrong type (a conjugated base that is no order oracle, a Z^k
field that is no sequence); all must still raise.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from braidorders import FROZEN_CONVENTION, BraidWord, MalformedInputError, QuadraticIrrational, Sturmian
from braidorders import NTOrder, ZkIntegerSlope, ZkLex, ZkQuadraticSlope, catalog
from braidorders import ConjugatedOrder, ConvexExtensionOrder, DehornoyOrder, GeodesicSpec, catalog_order
from braidorders import dehornoy
from braidorders.planar import _verdict

assert False, "asserts are live"  # stripped under -O
print("optimize", sys.flags.optimize)
dehornoy.handle_reduce = lambda w: dehornoy.HandleFreeWord(w.n, w.letters)  # leaves the word mixed
try:
    dehornoy.dehornoy_sign(BraidWord(3, (1, 2, -1)))
except AssertionError as exc:
    print("dehornoy_sign:", exc)
try:
    _verdict(2, 2, 1, FROZEN_CONVENTION, 3)
except AssertionError as exc:
    print("verdict:", exc)
try:
    BraidWord(3, (True, 2))
except MalformedInputError as exc:
    print("letter:", exc)
try:
    BraidWord(3.5, (1, 2))
except MalformedInputError as exc:
    print("strands:", exc)
try:
    Sturmian(3, QuadraticIrrational(7, 3, 2), 1, 2)
except MalformedInputError as exc:
    print("slope:", exc)
for build in (
    lambda: QuadraticIrrational(7, 3.0, 11),
    lambda: QuadraticIrrational(7.0, 3, 11),
    lambda: Sturmian(3, QuadraticIrrational(7, 3, 11), True, 2),
    lambda: ZkIntegerSlope((0.5, 1.5), ZkLex.standard(2)),
    lambda: ZkLex((0,), (1.0,)),
    lambda: ZkQuadraticSlope(2.0, ((1, 0),)),
    lambda: QuadraticIrrational(7, 3, 11).floor_times(2.5),
    lambda: NTOrder(catalog()["sturmian_3"], FROZEN_CONVENTION, 2.5),
):
    try:
        build()
    except MalformedInputError as exc:
        print("integer:", exc)
try:
    ZkIntegerSlope((1,), None)
except MalformedInputError as exc:
    print("tie break:", exc)
for build in (
    lambda: ConvexExtensionOrder(catalog_order("b4_b"), None),
    lambda: ConvexExtensionOrder(DehornoyOrder(4), ZkLex.standard(2)),
    lambda: ConjugatedOrder(catalog_order("b4_b"), (1,)),
    lambda: NTOrder(catalog()["b4_b"], None),
    lambda: NTOrder(None, FROZEN_CONVENTION),
    lambda: GeodesicSpec("x", (1, 2)),
    lambda: ConjugatedOrder(None, BraidWord(3, (1,))),
    lambda: ZkLex(None, (1,)),
    lambda: ZkIntegerSlope(None, ZkLex.standard(1)),
    lambda: ZkQuadraticSlope(2, None),
):
    try:
        build()
    except MalformedInputError as exc:
        print("typed:", exc)
"""


def test_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "dehornoy_sign: handle-free word has mixed signs on its main index",
        "verdict: divergence scan stopped on equal letters",
        "letter: letter True out of range for B_3 (need 1 <= |k| <= 2)",
        "strands: strand count must be an integer, got 3.5",
        "slope: Sturmian slope (3 + sqrt(7))/2 is not in (0, 1)",
        "integer: p must be an integer, got 3.0",
        "integer: d must be an integer, got 7.0",
        "integer: Sturmian letter must be an integer, got True",
        "integer: slope weight must be an integer, got 0.5",
        "integer: lex sign must be an integer, got 1.0",
        "integer: qslope d must be an integer, got 2.0",
        "integer: k must be an integer, got 2.5",
        "integer: depth cap must be an integer, got 2.5",
        "tie break: slope tie break must be a ZkLex, got None",
        "typed: soul order must be a Z^k order, got None",
        "typed: convex extension base must be an NTOrder, got DehornoyOrder(n=4)",
        "typed: conjugator must be a BraidWord, got (1,)",
        "typed: order convention must be a GermConvention, got None",
        "typed: order spec must be a GeodesicSpec, got None",
        "typed: spec word must be a free word or a stream, got (1, 2)",
        "typed: conjugated base must be an order oracle, got None",
        "typed: lex axes must be a sequence, got None",
        "typed: slope weights must be a sequence, got None",
        "typed: qslope weights must be a sequence, got None",
    ]
