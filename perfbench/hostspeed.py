"""How fast the host runs plain Python right now, to scale measured times.

On a shared host the same query can take 1.6x longer from one minute to
the next (measured on a 2-vCPU Xeon VM at 2.1 GHz), far beyond the bounds
the benchmark sets.  A fixed reference loop, timed between the measured
calls, tracks that drift: dividing measured seconds by the loop's mean
time over the same stretch and multiplying by :data:`NOMINAL_SECONDS`
gives the time on a host that runs the loop in exactly that long.  The
loop is part of the benchmark, not of the program, so a change to the
program moves the scaled time as much as the raw one.

The loop allocates no containers and runs with the garbage collector off,
so the program's heap cannot change its cost, and it is timed in thread
CPU time, so no other thread of the process can stretch it.
"""

from __future__ import annotations

import gc
import os
import time

#: Iterations of one reference sample (about 20 ms on the host above).
ITERATIONS = 60_000
#: The reference sample's thread CPU time on the host above, when quiet.
NOMINAL_SECONDS = 0.020


def _reference_loop(table: list, mapping: dict, iterations: int) -> int:
    total = 0
    for step in range(iterations):
        total += table[step & 1023]
        mapping[(step * 7) & 4095] = total & 0xFFFF
        table[step & 1023] = mapping[step & 4095]
    return total


def _sample_here() -> float:
    table = list(range(1024))
    mapping = dict.fromkeys(range(4096), 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _reference_loop(table, mapping, ITERATIONS)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Mean thread CPU seconds of the reference loop over the usable CPUs.

    Each CPU of the process's affinity set runs the loop once: the program
    may run on any of them, and its worker processes run on all of them.
    The affinity set is restored afterwards.
    """
    if not hasattr(os, "sched_getaffinity"):
        return _sample_here()
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return _sample_here()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_sample_here())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class HostSpeed:
    """Reference samples spread over a stretch of measured calls.

    Call :meth:`after` once each measured call returned: it samples in
    proportion to the call's length, so the samples weigh each part of the
    stretch by its time.  :meth:`scale` is the factor that turns the
    stretch's measured seconds into nominal ones.  One factor per stretch
    averages out the noise of single samples; the drift it corrects is
    slow next to one call.
    """

    #: Reference time spent after each call, as a share of the call's time.
    SHARE = 0.03

    def __init__(self) -> None:
        self._cpus = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        )
        self.samples = [sample()]

    def after(self, seconds: float) -> None:
        """Sample after a call that took ``seconds``."""
        count = round(self.SHARE * seconds / (NOMINAL_SECONDS * self._cpus))
        self.samples.extend(sample() for _ in range(max(1, count)))

    def scale(self) -> float:
        """Nominal over measured reference time for the stretch so far."""
        return NOMINAL_SECONDS * len(self.samples) / sum(self.samples)
