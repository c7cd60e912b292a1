"""Host-speed calibration: a fixed pure-Python kernel timed between jobs.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over spells of seconds to minutes, as other tenants come and
go.  Wall times taken at different moments differ by that much even for the
same code and inputs.  So the worker times this kernel right before and
right after every job and scales the job's times by
``REFERENCE_S / (mean of the two kernel times)``: every reported time is the
time the job would have taken on a host where one kernel run takes
``REFERENCE_S``.

The kernel is the benchmark's own code and calls nothing in braidorders, so
a change to the program cannot move it: a faster program still reads
faster.  It does what the program's hot loops do (tuple slicing and
concatenation, a list used as a stack, small-integer compares), so the
host's drift moves it as it moves the program.  It runs with the cyclic
garbage collector paused, so that the program's heap, however large, does
not make it slower.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# one kernel run on the host the benchmark was written on, in a typical spell
REFERENCE_S = 0.0025

_rng = random.Random("calibration-v1")
_WORDS = tuple(tuple(_rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(60)) for _ in range(40))


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for k in word:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _kernel() -> int:
    total = 0
    for w in _WORDS:
        for i in range(0, len(w), 6):
            total += len(_free_reduce(w[i:] + tuple(-k for k in reversed(w[:i]))))
    return total


def kernel_s() -> float:
    """Seconds taken by one run of the kernel, now: the faster of two runs,
    so that the first, which may find the caches cold after a job, or a
    stray interrupt does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        return min(times)
    finally:
        if enabled:
            gc.enable()
