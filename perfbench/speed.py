"""The machine's CPU speed, read from a fixed reference loop while operations run.

The benchmark's host shares its cores.  Their speed switches between a fast
and a slow state, up to 2x apart, many times a second, and the share of
time spent in the slow state changes from one minute to the next by 20% or
more.  Raw wall times of the same code therefore differ between runs by
more than the benchmark's bounds.

While an operation runs, an interval timer interrupts it every
``INTERVAL_S`` and the signal handler times one short reference loop; two
more loops follow the operation, so every operation has samples.  The
loop is the benchmark's own code, so no change to the program moves it.
An operation's time, net of the handler's own time, is reported at the
nominal speed, at which the loop takes ``REF_NOMINAL_MS``:

    (wall - sampler time) * REF_NOMINAL_MS / mean(loop times of the operation)
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# The reference loop's time at the nominal speed; timings are scaled to it.
REF_NOMINAL_MS = 0.25
# How often the sampler interrupts an operation.
INTERVAL_S = 0.02
# Reference loops timed right after each operation.
LOOPS_AFTER_OP = 2
_BOUNDS = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]


def reference_loop(n: int = 500) -> int:
    """Interpreter-bound work of the kinds latcomm does: float arithmetic,
    bisect over bounds, dict updates, small strings."""
    counts: dict[int, int] = {}
    parts = []
    x = 0.1234
    total = 0
    for i in range(n):
        x = (x * 1.618033988749895 + 0.1) % 1.0
        j = bisect.bisect_right(_BOUNDS, x) - 1
        counts[j] = counts.get(j, 0) + 1
        total += (i + 1) // 2
        if i % 8 == 0:
            parts.append(str(j))
    return total + len(",".join(parts)) + len(counts)


def _time_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1e3


class Speedometer:
    """Reference-loop times sampled during and right after timed operations."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._op_ms: list[float] = []
        self._stolen_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._op_ms.append(_time_loop())
        self._stolen_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample the speed while the body runs; time the body inside this block."""
        self._op_ms, self._stolen_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def settle(self, elapsed_s: float) -> tuple[float, float]:
        """The last sampled operation's time net of the sampler, and at the nominal speed."""
        self._op_ms.extend(_time_loop() for _ in range(LOOPS_AFTER_OP))
        self.samples_ms.extend(self._op_ms)
        net_s = elapsed_s - self._stolen_s
        return net_s, net_s * REF_NOMINAL_MS / statistics.fmean(self._op_ms)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    def scale(self) -> float:
        """Factor that turns a wall time of this run into one at the nominal speed."""
        return REF_NOMINAL_MS / self.mean_ms()
