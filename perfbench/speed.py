"""Timings corrected for the machine's current speed.

On a shared machine the CPU speed drifts: on the 2-core x86-64 virtual
machine the benchmark was built on, a fixed loop ran anywhere from 1x to
1.85x of its fastest time, at one level for seconds to minutes.  A run
therefore times a fixed pure-Python loop, the reference, before the first
set-up round and after every set-up round and every item, and scales each
of those times by REF_SECONDS over the mean of the two reference times
around it.  A scaled time is what the work would have taken at the speed at
which the reference takes REF_SECONDS.  Work done by isingcoupler still
shows in full, because the reference does not change with the program.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 150_000
# The reference's time at the fastest speed seen on the build machine.
REF_SECONDS = 0.0105


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that turns a wall time measured between two reference timings
    into a time at the reference speed."""
    return 2.0 * REF_SECONDS / (ref_before + ref_after)
