"""How fast the host runs right now, from a fixed reference job.

The benchmark's hosts are shared, and the speed of pure-Python code drifts
with the other tenants' load by up to a factor of two, in phases of
seconds to minutes; process CPU time drifts with it.  The worker times a
fixed job of the same kind as the library's work (big-integer
elimination and dict traffic) just before and just after a short
measurement, and rescales the measurement to the speed at which the job
takes NOMINAL_S seconds.  It is applied to every set-up and to the
queries of most workloads (workloads.SPECS says which).  The job never
calls the library, so a change to the library cannot move it.

This module imports only the standard library.
"""
from __future__ import annotations

import random
import time

# A round figure near the job's time on the 2-core 2.0 GHz Xeon this
# benchmark was written on (Python 3.11); comparisons use ratios of
# rescaled times, so only its constancy matters.
NOMINAL_S = 0.08
_REPS = 40

_rng = random.Random(20)
_MATRIX = [[_rng.randrange(-9, 10) for _ in range(30)] for _ in range(30)]


def _job():
    """Fraction-free elimination of a fixed integer matrix, with dict
    traffic; the same work on every call."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    prev = 1
    seen = {}
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    break
        piv = m[k][k] or 1
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * piv - a * top[j]) // prev
            seen[(k, i)] = row[-1] % 1009
        prev = piv
    return m[n - 1][n - 1], len(seen)


def reference_seconds() -> float:
    """Wall time of the reference job now."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _job()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference
    timings to the nominal host speed."""
    return NOMINAL_S / ((before + after) / 2)
