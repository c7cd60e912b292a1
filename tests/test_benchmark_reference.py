"""The benchmark's recorded answers, checked in the test suite.

``benchmarks/reference.json`` holds the JSON output digest of every CLI job
any benchmark seed can pick (``workloads.cli_variants()``) and the verdicts
of the stream orders and of handle reduction on the streams workload's
balls and random pools.  A benchmark run fails an operation whose answer
drifts from these; here the same drift fails a test.  The workload module is
read and executed in memory, so nothing is written under ``benchmarks/``.
"""

import json
import types
from pathlib import Path

import pytest

import braidorders.cli  # run_cli calls braidorders.cli.main
from braidorders import BraidWord, UndecidedComparisonError, catalog_order, dehornoy_sign

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _workloads() -> types.ModuleType:
    path = BENCHMARKS / "workloads.py"
    module = types.ModuleType("benchmark_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCHMARKS / "reference.json").read_text())


@pytest.mark.parametrize("argv", WORKLOADS.cli_variants(), ids=" ".join)
def test_cli_digest_matches_the_reference(argv):
    argv = list(argv) + ["--format", "json"]
    rc, out = WORKLOADS.run_cli(braidorders, argv)
    assert WORKLOADS.output_digest(rc, out) == REFERENCE["cli"][" ".join(argv)]


def _verdict(sign, w) -> str:
    try:
        return WORKLOADS.VERDICT[sign(w)]
    except UndecidedComparisonError:
        return WORKLOADS.UNDECIDED


@pytest.mark.parametrize("name, n, radius", WORKLOADS.STREAM_ORDERS)
@pytest.mark.parametrize("words", ["ball", "pool"])
def test_stream_verdicts_match_the_reference(name, n, radius, words):
    letters = WORKLOADS.ball_words(n, radius) if words == "ball" else WORKLOADS.stream_pool(n, name)
    record = REFERENCE["streams"][f"{name}:{words}"]
    order = catalog_order(name)
    braids = [BraidWord(n, w) for w in letters]
    assert "".join(_verdict(order.sign, b) for b in braids) == record["nt"]
    assert "".join(_verdict(dehornoy_sign, b) for b in braids) == record["hr"]
