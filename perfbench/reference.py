"""A fixed reference kernel that measures the speed of the host during a run.

The host is shared, and its speed changes by up to 70% within a second and
drifts by 10-30% over minutes: a fixed pure-Python loop and the benchmark's
own jobs slow down and speed up together.  The worker times this kernel
between jobs, outside their timed regions: once before every job, and once
more for every ``EVERY_S`` seconds that passed since it last did, so the
samples spread evenly over the run.  ``run.py`` scales the end-to-end times
by ``REFERENCE_S`` over the kernel time measured across the same stretch.
The kernel uses only the standard library and none of ``liecert``, so no
change to the package moves it; it does the kind of work the package does:
exact ``Fraction`` elimination, a subset scan with closure masks, list
rebuilding and dict updates.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from itertools import combinations

# Scaled times are seconds on a host where one kernel call takes this long
# (the kernel's typical time on 2 vCPUs of a shared x86-64 host, CPython 3.11).
REFERENCE_S = 0.010
# one kernel call is due for each EVERY_S seconds of the run (about 10% of
# its time); at most MAX_BURST calls are made between two jobs
EVERY_S = 0.08
MAX_BURST = 100


def kernel(n: int = 12) -> Fraction:
    """Determinant of a fixed n x n rational matrix by elimination, a subset
    scan with closure masks, and a dict pass."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] += 7
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    # subsets of 14 items closed under a fixed partial addition table
    add = [[(i + j) % 14 if (i * j) % 3 == 1 else None for j in range(14)] for i in range(14)]
    closed = 0
    for members in combinations(range(14), 4):
        mask = 0
        for i in members:
            mask |= 1 << i
        closed += all(add[i][j] is None or (mask >> add[i][j]) & 1 for i in members for j in members)
    counts: dict[int, int] = {}
    for k in range(8000):
        key = (k * 2654435761) % 1009
        counts[key] = counts.get(key, 0) + 1
    return det * len(counts) + closed


def timed_kernel() -> float:
    """Seconds one kernel call takes, with the cyclic collector paused: the
    kernel makes no cycles, and a collection of the job's heap is not its work."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
