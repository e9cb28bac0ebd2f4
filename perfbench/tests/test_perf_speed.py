import signal
import time

import pytest

import speed


def test_slowdown_is_a_trimmed_mean_over_the_reference():
    ref = speed.REFERENCE_KERNEL_S
    samples = [2 * ref] * 18 + [100 * ref, 0.0]  # one preempted, one bogus
    assert speed.slowdown(samples) == pytest.approx(2.0)


def test_probe_samples_while_the_process_is_busy_and_then_stops():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert all(0 < s < 0.3 for s in probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
