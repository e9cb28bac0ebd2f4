"""Machine-speed probe: a fixed loop, timed while the benchmark runs.

On a shared machine, other tenants slow every process on a core, and the
slowdown comes and goes over tens of seconds.  Medians over passes cannot
remove it, because a whole run can fall in a slow stretch.  Measured on a
shared 2-core VM, the interquartile range of ten runs' wall times was 16-27%
of their median.

So each child times a small kernel, a pure-Python integer loop: ten times
right after set-up, then every 50 ms while the case runs, from a timer
signal.  The kernel's mean time over ``REFERENCE_KERNEL_S`` is the slowdown
the child ran under, and the benchmark divides the child's timings by it.
The kernel's own time is taken out of the case's time first.

The integer loop was chosen because its time tracks the library's time one
for one.  Timed next to 40 ms pieces of ``gt_decompose``, orbit products and
``tensor_multiplicities`` over 90 s of varying load, log(piece time) against
log(kernel time) had slopes 0.93-1.18.  Kernels of ``Fraction`` arithmetic
had slopes of 0.54-0.75, so dividing by them over-corrects.
"""

from __future__ import annotations

import signal
import statistics
import time

# the kernel's time on an unloaded machine of the kind the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11); dividing by it keeps the
# corrected timings in seconds of that machine
REFERENCE_KERNEL_S = 0.0003
PERIOD_S = 0.05
SETUP_KERNELS = 10


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    return time.perf_counter() - start


def slowdown(samples) -> float:
    """Mean kernel time over the reference time, dropping the top and bottom
    tenth of the samples (a kernel preempted by the scheduler reads far too
    slow)."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return statistics.fmean(kept) / REFERENCE_KERNEL_S


class SpeedProbe:
    """Times the kernel every ``PERIOD_S`` seconds of wall time, from SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
