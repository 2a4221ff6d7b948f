"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by 20% and
more over minutes, far beyond what a code change should be judged by.
While a run measures, a timer signal every PROBE_INTERVAL_S runs a
short fixed loop of pure Python in the main thread and records how long
it took. The loop uses none of the package, allocates no containers
(so it never triggers the garbage collector) and costs about 0.3% of
the run. The median loop time over an interval, divided by
PROBE_REF_S, is the slowness of the machine in that interval; the
benchmark divides each operation's time by the slowness while it ran,
which reports it at the reference machine speed. Raw timings stay in
the run manifest.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1
PROBE_LOOPS = 4000
# about the median probe time on a 2-vCPU x86-64 VM with CPython 3.11
# in its fast periods; the reference speed the normalized timings use
PROBE_REF_S = 3.0e-4


def probe_loop() -> int:
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return x


class SpeedProbe:
    """Context manager sampling the probe loop on a timer signal."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, first: int = 0, last: int | None = None) -> float:
        """How much slower than the reference the machine ran while
        samples[first:last] were taken (1.0 if there are none)."""
        window = self.samples[first:last]
        return statistics.median(window) / PROBE_REF_S if window else 1.0
