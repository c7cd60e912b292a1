"""One workload in one fresh interpreter; started by run.py, not by hand.

    worker.py setup <workload> <seed>
        time the set-up alone and print {"setup_s": ...}
    worker.py run <workload> <seed> <seconds> <trace> <trace_file>
        set up, then repeat the workload's job list until <seconds> have
        passed, and print one JSON summary line

The first WARMUP_S seconds are a warm-up: jobs checked, not timed.
Untraced runs report times scaled to the reference host speed, measured by
the calibration kernel around each job (calibration.py), with the raw times
alongside.  With trace 1 the measured time is split: untraced passes, then
the tracer is installed and the remaining passes are traced; the per-layer
metrics are per traced pass, in raw time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


WARMUP_S = 4.0
MODULES = ("braids", "catalog", "cli", "dehornoy", "errors", "nt", "orders", "planar")


class Library:
    """The braidorders submodules the jobs call through."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        package = importlib.import_module("braidorders")
        location = Path(package.__file__).resolve()
        if SRC.resolve() not in location.parents:
            raise SystemExit(f"braidorders was imported from {location}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"braidorders.{name}"))


def set_up(workload: str, seed: int, ref: dict):
    """(library, jobs, seconds spent importing and building the orders)."""
    jobs, entries = workloads.build(workload, seed, ref)
    t0 = perf_counter()
    bo = Library()
    bo.catalog.catalog()
    for name in entries:
        bo.catalog.catalog_order(name)
    for job in jobs:
        job.setup(bo)
    return bo, jobs, perf_counter() - t0


class Record:
    """The timed passes of an untraced run, scaled to the reference host
    speed (see calibration.py): each job's times, and per oracle and pass
    the sign latencies in word order."""

    def __init__(self, jobs):
        self.job_s: list[list[float]] = [[] for _ in jobs]
        self.raw_job_s: list[list[float]] = [[] for _ in jobs]
        self.samples: dict[str, list[list[float]]] = {workloads.HR: [], workloads.NT: []}

    def latency(self, oracle: str) -> tuple[int, float, float]:
        """(words signed per pass, p50 ms, p99 ms): percentiles over the
        words of each word's median latency across the passes, so that a
        call that a stray pause of the host lands on does not count."""
        per_word = sorted(statistics.median(calls) for calls in zip(*self.samples[oracle]))
        return len(per_word), percentile(per_word, 0.50) * 1e3, percentile(per_word, 0.99) * 1e3


def run_pass(bo, jobs, ref, tally, record: Record | None = None) -> float:
    """One pass over the job list; returns its duration.

    With a ``record``, the calibration kernel is timed before and after each
    job, and the job's time and sign latencies, scaled by the mean of the
    two, are added to the record.
    """
    tally.samples = {workloads.HR: [], workloads.NT: []}
    t0 = perf_counter()
    if record is None:
        for job in jobs:
            job.run(bo, ref, tally)
        return perf_counter() - t0
    before = calibration.kernel_s()
    for i, job in enumerate(jobs):
        marks = {oracle: len(samples) for oracle, samples in tally.samples.items()}
        start = perf_counter()
        job.run(bo, ref, tally)
        took = perf_counter() - start
        after = calibration.kernel_s()
        scale = 2 * calibration.REFERENCE_S / (before + after)
        record.job_s[i].append(took * scale)
        record.raw_job_s[i].append(took)
        for oracle, samples in tally.samples.items():
            samples[marks[oracle] :] = [x * scale for x in samples[marks[oracle] :]]
        before = after
    for oracle, samples in tally.samples.items():
        record.samples[oracle].append(samples)
    return perf_counter() - t0


def scaled_pass(bo, jobs, ref, tally) -> tuple[float, float]:
    """One pass, not recorded per job: (its duration, its duration scaled
    by the calibration kernel timed before and after it)."""
    before = calibration.kernel_s()
    took = run_pass(bo, jobs, ref, tally)
    return took, took * 2 * calibration.REFERENCE_S / (before + calibration.kernel_s())


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def keep_going(start: float, passes: list[float], seconds: float) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    return perf_counter() - start + statistics.median(passes) <= seconds


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    ref = json.loads((HERE / "reference.json").read_text())
    if mode == "setup":
        before = calibration.kernel_s()
        _, _, setup_s = set_up(workload, seed, ref)
        scale = 2 * calibration.REFERENCE_S / (before + calibration.kernel_s())
        print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s}))
        return 0

    seconds, trace, trace_file = float(argv[3]), argv[4] == "1", argv[5]
    bo, jobs, setup_s = set_up(workload, seed, ref)
    for job in jobs:
        job.inputs(bo)
    tally = workloads.Tally()
    out = {
        "setup_s": setup_s,
        "ops_per_pass": sum(job.ops for job in jobs),
        "jobs": [job.label for job in jobs],
    }
    start = perf_counter()
    # warm-up: the host runs faster for a few seconds after an idle spell;
    # jobs run in order, checked but not timed, until WARMUP_S have passed
    for job in itertools.cycle(jobs):
        if perf_counter() - start >= WARMUP_S:
            break
        job.run(bo, ref, tally)

    if not trace:
        record = Record(jobs)
        passes = [run_pass(bo, jobs, ref, tally, record)]
        while keep_going(start, passes, seconds):
            passes.append(run_pass(bo, jobs, ref, tally, record))
        # the pass time is the sum of each job's median time, so that a slow
        # spell of the host within a run does not move it
        out["wall_s"] = sum(statistics.median(times) for times in record.job_s)
        out["raw_wall_s"] = sum(statistics.median(times) for times in record.raw_job_s)
        for oracle in (workloads.HR, workloads.NT):
            words, p50, p99 = record.latency(oracle)
            out.update({f"{oracle}_words": words, f"{oracle}_sign_p50_ms": p50, f"{oracle}_sign_p99_ms": p99})
        out.update(passes=passes, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        from tracer import Tracer

        # untraced passes for the first half of the measured time, traced
        # passes for the second; the difference of their scaled medians is
        # the overhead
        untraced = [scaled_pass(bo, jobs, ref, tally)]
        while keep_going(start, [took for took, _ in untraced], (WARMUP_S + seconds) / 2):
            untraced.append(scaled_pass(bo, jobs, ref, tally))
        tracer = Tracer()
        tracer.install()
        traced: list[tuple[float, float]] = []
        while True:
            traced.append(scaled_pass(bo, jobs, ref, tally))
            if not keep_going(start, [took for took, _ in traced], seconds):
                break
        overhead = statistics.median(x for _, x in traced) - statistics.median(x for _, x in untraced)
        untraced, traced = [took for took, _ in untraced], [took for took, _ in traced]
        wall = sum(traced)
        outside = wall - tracer.top_level_s
        self_sum = tracer.self_sum_s()
        # every span's self time plus the time outside any span is the wall time
        closes = abs(self_sum + outside - wall) <= 1e-6 + 1e-9 * tracer.next_id and outside >= 0
        if not closes:
            tally.fail(f"trace does not close: self {self_sum} + outside {outside} != wall {wall}")
        layers = tracer.metrics(len(traced))
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        # means, not medians, so that the per-pass self times add up exactly
        layers["trace.wall_s"] = {"value": wall / len(traced), "unit": "s"}
        layers["trace.outside_s"] = {"value": outside / len(traced), "unit": "s"}
        layers["trace.spans"] = {"value": tracer.next_id / len(traced), "unit": "count"}
        out.update(passes=untraced, traced_passes=traced, layers=layers, absent=tracer.absent)
        tracer.dump(
            trace_file,
            {"workload": workload, "seed": seed, "traced_passes": traced, "untraced_passes": untraced},
        )

    out.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
