"""Host-speed normalisation for timings taken on a shared, noisy machine.

On a host whose other tenants compete for the same cores, the speed of
CPU-bound Python drifts by +-25% within a few seconds, and CPU time drifts
with wall time, so neither medians nor CPU time remove it. The benchmark
therefore samples the host's speed while it measures: an interval timer
(SIGALRM, every ``INTERVAL_S``) runs a fixed pure-Python chunk (``_chunk``)
between two bytecodes of whatever is being measured, and records how long the
chunk took. A measured duration excludes the time spent in chunks and is
scaled by ``REFERENCE_CHUNK_S / (mean chunk time around it)``, which reads as
the duration on a host where the chunk takes ``REFERENCE_CHUNK_S``. The raw
durations are reported next to the normalised ones.

The chunk is benchmark code, so no change to medsync can move it; it does
dict stores and int-to-str conversions, the same kind of interpreter work as
the program, and reads no state of the program it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_CHUNK_S = 0.00065  # the chunk's time on a 2-vCPU CPython 3.11.7 reference host
INTERVAL_S = 0.02  # sampling period; a chunk costs about 3% of it
WINDOW_S = 0.1  # samples this close to a measured interval describe its speed


def _chunk(table: dict) -> int:
    """Fixed interpreter work. It allocates no object the garbage collector
    tracks (the dict is reused), so it can neither trigger a collection nor
    shift when the measured program's collections happen."""
    table.clear()
    total = 0
    for i in range(3000):
        table[i & 1023] = i
        total += len(str(i))
    return total


class Speedometer:
    """Samples host speed during a ``with`` block; ``now`` also gives time less the sampling."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample started (time.perf_counter)
        self.took: list[float] = []  # how long its chunk ran
        self.paused = 0.0  # total time spent sampling
        self._sampling = False
        self._table: dict[int, int] = {}

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = time.perf_counter()
        _chunk(self._table)
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.paused += took
        self._sampling = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float]:
        """(wall time, wall time minus sampling so far)."""
        t = time.perf_counter()
        return t, t - self.paused

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between wall times `start` and `end`."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample close by: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        window = self.took[lo:hi]
        return REFERENCE_CHUNK_S * len(window) / sum(window)

    def timed(self, fn, *args, min_s: float = 0.0):
        """Call fn(*args) until `min_s` has passed, at least once.

        Returns the last result and the raw and normalised seconds per call.
        """
        self.sample()
        start, work_start = self.now()
        calls = 0
        while True:
            result = fn(*args)
            calls += 1
            end, work_end = self.now()
            if end - start >= min_s:
                break
        self.sample()
        raw = (work_end - work_start) / calls
        return result, raw, raw * self.factor(start, end)
