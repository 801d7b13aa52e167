"""Host-speed calibration for the timed end-to-end metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% within minutes as other tenants come and go; in one run, passes
of the same queries took 7.7 s to 11.1 s.  CPU time drifts with wall
time, so the slowdown is slower execution, not time spent descheduled.

A calibration sample is a fixed piece of work that does not touch condual:
exact ``Fraction`` sums and an integer loop in the interpreter (the work of
the exact workloads) and small dense numpy products (the work of the float
ones).  The benchmark takes one sample before every query and one after
the last, and rescales each query's latency by ``REFERENCE_S`` over the
median of the samples around it.  A rescaled time is the time the query
would have taken on a host where a sample takes ``REFERENCE_S``.  Edits to
condual cannot change a sample, so a faster library still reads faster.
Measured over ten seeds per workload: while the median sample of a pass
moved between 0.95 ms and 1.5 ms, the rescaled passes of one query list
agreed within about 5%.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# about the median time of a sample on the 2-vCPU host the benchmark was
# built on; only the scale of the rescaled metrics depends on it
REFERENCE_S = 0.0013
WINDOW = 2          # samples on each side of a query that set its scale
SETUP_SAMPLES = 15  # samples taken after each set-up

_A = np.arange(400.0).reshape(20, 20) / 400.0


def sample():
    """Seconds one fixed piece of interpreter and numpy work takes now."""
    t = perf_counter()
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(1, i)
    x = 0
    for i in range(5000):
        x += i * i % 7
    b = _A
    for _ in range(40):
        b = np.clip(b @ _A * 0.5, -1.0, 1.0)
    return perf_counter() - t


def factor(samples, i):
    """Rescaling factor of the query run between samples i and i + 1."""
    window = samples[max(0, i - WINDOW):i + WINDOW + 2]
    return REFERENCE_S / statistics.median(window)


def setup_factor():
    """Rescaling factor measured right after a set-up."""
    return REFERENCE_S / statistics.median(sample() for _ in range(SETUP_SAMPLES))
