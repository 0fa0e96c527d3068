"""Machine-speed reference for the benchmark's time metrics.

On a shared host the same interpreter-bound work runs 20-35% slower for
minutes at a time when neighbours are busy.  The loss shows in CPU time,
not only in wall time, so measuring longer does not remove it.  The
benchmark therefore times a fixed pure-Python loop (a reference slice)
between requests, on the same CPU, and reports each latency scaled to a
machine on which one slice takes ``REF_NOMINAL_S``:

    reference seconds = measured seconds * REF_NOMINAL_S / local slice time

where the local slice time is the median of the five slices nearest the
request.  The loop never touches weylflags, so a change to the program
moves the reported time exactly as it moves the measured time.
"""

import bisect
import statistics
import time

REF_ITERATIONS = 150_000
# Median slice time on an unloaded 2-vCPU Intel Xeon VM with CPython 3.11.7.
REF_NOMINAL_S = 0.010


def reference_slice() -> float:
    """Seconds one fixed slice of interpreter work takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(samples, slices):
    """Scale measured latencies to reference seconds.

    ``samples`` is a list of (position, seconds) and ``slices`` a list of
    (position, slice seconds), both in run order; a position counts the
    requests run before that point.  Returns the scaled seconds in the
    order of ``samples``."""
    positions = [pos for pos, _ in slices]
    out = []
    for pos, seconds in samples:
        j = bisect.bisect_left(positions, pos)
        near = [t for _, t in slices[max(0, j - 2): j + 3]]
        out.append(seconds * REF_NOMINAL_S / statistics.median(near))
    return out
