"""Host-speed calibration for every reported time.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over minutes, far more than the regressions worth
catching.  A fixed pure-Python loop, timed in the same process and
interleaved with the measured work, tracks that drift; every time is
multiplied (and every rate divided) by ``REFERENCE_LOOP_MS`` over the
loop's median time in the run.  The figures therefore read as host
time on a machine where the loop takes ``REFERENCE_LOOP_MS``; the raw
loop time is printed with each result so raw host time can be
recovered.  The loop touches no code of the program under test, so a
change to the program cannot move it.
"""

import statistics
import time

LOOP_ITERATIONS = 60_000
REFERENCE_LOOP_MS = 4.0
#: Minimum spacing of loop samples during a measured run.
EVERY_S = 0.25


def loop_ms():
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def scale(samples_ms):
    """Factor turning host time into reference time."""
    return REFERENCE_LOOP_MS / statistics.median(samples_ms)
