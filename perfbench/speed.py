"""Speed-corrected timing on a machine whose CPUs change speed under it.

On a shared machine, other tenants slow this process's CPUs down by up to
about 1.6x, for periods from a fraction of a second to minutes.  CPU time
tracks wall time through them, so the program runs slower rather than waits,
and every wall time measured in such a period is inflated.

:meth:`SpeedClock.time` therefore samples the machine's speed while the timed
call runs: every ``PERIOD_S`` a ``SIGALRM`` handler runs a fixed
pure-Python kernel and records how long it took.  Each stretch of the call
between two samples counts at the speed the kernels on either side measured,
relative to the kernel's time at full speed (``NOMINAL_S``).  The corrected
seconds are what the call would have taken at full speed; the kernels' own
time is left out.  On a 2-CPU machine shared with other tenants, the
corrected times of one repeated generation or replay varied about a third as
much as the wall times.

Only the calling process is sampled.  Worker processes neither inherit the
interval timer nor are measured; a fan-out is corrected by the speed of the
parent's CPU while it waits.
"""

from __future__ import annotations

import signal
import statistics
import time

#: How often the speed is sampled while a timed call runs.
PERIOD_S = 0.02
#: The kernel's time inside a running program at full speed, measured on the
#: 2-CPU machine the README describes; it only sets the scale of the result.
NOMINAL_S = 8.5e-5


def _kernel() -> list[int]:
    counts: dict[int, int] = {}
    for i in range(600):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return sorted(counts.values())


class SpeedClock:
    """Times calls in corrected seconds; see the module docstring."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _kernel()
        self._samples.append((start, time.perf_counter() - start))

    def time(self, function):
        """Call ``function()``; returns ``(corrected seconds, wall seconds, result)``.

        The wall seconds exclude the sampling kernels' own time.
        """
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = function()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        corrected, wall = self._correct(start, end)
        return corrected, wall, result

    def _correct(self, start: float, end: float) -> tuple[float, float]:
        # A signal pending when the timer stopped may add a sample after ``end``.
        first, *inside, last = self._samples
        samples = [first, *(sample for sample in inside if sample[0] < end), last]
        # A kernel run that the OS interrupted reads slow on its own; the
        # median of three neighbours keeps it from skewing one stretch.
        speed = [
            NOMINAL_S / statistics.median(kernel for _, kernel in samples[max(i - 1, 0): i + 2])
            for i in range(len(samples))
        ]
        # Sample 0 ran before ``start`` and the last one after ``end``; the
        # stretches lie between consecutive samples.
        corrected = wall = 0.0
        stretch_start = start
        for i in range(1, len(samples)):
            stretch_end = end if i == len(samples) - 1 else samples[i][0]
            stretch = stretch_end - stretch_start
            wall += stretch
            corrected += stretch * (speed[i - 1] + speed[i]) / 2
            stretch_start = samples[i][0] + samples[i][1]
        return corrected, wall
