"""Host-speed adjustment of the benchmark's timings.

On a shared machine the same code runs at different speeds from one second
to the next: other tenants slow the whole core, by up to about 1.9x, in
stretches that last from seconds to tens of minutes. A run that falls in a
slow stretch reads slow from start to end, so neither repeats nor minima
within a run remove it.

The benchmark therefore times a fixed probe of its own alongside the
program: a few milliseconds of small-array numpy calls, a Python loop and a
JSON round trip, the mix the program spends its time on, and no ``tiercast``
code, so a change to the program never changes the probe. While a run
measures, an interval timer interrupts the program every ``PERIOD_S`` and
times one probe. A stretch of program time is then scaled by
``REFERENCE_MS`` over the mean probe time around it, and the time the probes
themselves took is left out. The result reads in milliseconds of a host in
the state where the probe takes ``REFERENCE_MS``.

The probe and the program slow down together (over 1.2 s windows their log
times correlate at 0.97-0.98, with slope near 1), so the scaled times keep
every change of the program and lose most of the host's.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# The probe's time on a 2-core Intel Xeon VM in its fast state. Any fixed
# value would do: it only sets the scale of the adjusted times.
REFERENCE_MS = 1.1

# One probe every PERIOD_S of wall time while the program runs.
PERIOD_S = 0.05

# Probes whose midpoint lies within WINDOW_S of a stretch describe its host.
WINDOW_S = 0.25

_STEP = np.arange(5, 0, -1.0)
_BLOB = json.dumps({"rows": [[i * 0.5 + j for j in range(12)] for i in range(20)]})


def probe() -> float:
    """A fixed piece of work: numpy on tiny arrays, a loop, a JSON round trip."""
    costs = np.empty(0)
    total = 0.0
    for i in range(120):
        costs = np.sort(np.concatenate((costs[-20:], _STEP)))
        prefix = np.cumsum(costs)
        total += float(prefix[-1]) + int(np.searchsorted(prefix, 3.0))
        total += sum(k * k % 7 for k in range(20))
    total += len(json.dumps(json.loads(_BLOB)))
    return total


class HostSpeed:
    """Probe times taken during a run, and the times they adjust."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.probes: list[tuple[int, int]] = []  # (midpoint ns, probe ns), in time order
        self._pause_starts: list[int] = []  # handler entry ns, in time order
        self._pause_total: list[int] = [0]  # prefix sums of handler durations
        self._mids: list[int] = []

    def sample(self) -> int:
        """Time one probe now; return its duration in ns."""
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the probe
        try:
            start = perf_counter_ns()
            probe()
            end = perf_counter_ns()
        finally:
            if enabled:
                gc.enable()
        self.probes.append(((start + end) // 2, end - start))
        return end - start

    def _tick(self, signum, frame) -> None:
        entered = perf_counter_ns()
        self.sample()
        self._pause_starts.append(entered)
        self._pause_total.append(self._pause_total[-1] + perf_counter_ns() - entered)

    @contextmanager
    def sampling(self):
        """Probe every ``period_s`` of wall time for the length of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def paused_ns(self, start: int, end: int) -> int:
        """Time the probes took inside ``[start, end]``."""
        lo = bisect.bisect_left(self._pause_starts, start)
        hi = bisect.bisect_left(self._pause_starts, end)
        return self._pause_total[hi] - self._pause_total[lo]

    def probe_ms_around(self, segments) -> float:
        """Mean probe time near the segments, or the nearest probe's."""
        if not self.probes:
            raise ValueError("no probe was taken")
        if len(self._mids) != len(self.probes):
            self._mids = [mid for mid, _ in self.probes]
        mids = self._mids
        window = int(WINDOW_S * 1e9)
        near = set()
        for start, end in segments:
            near.update(range(bisect.bisect_left(mids, start - window), bisect.bisect_right(mids, end + window)))
        if not near:
            start = segments[0][0]
            index = bisect.bisect_left(mids, start)
            near = {min((i for i in (index - 1, index) if 0 <= i < len(mids)), key=lambda i: abs(mids[i] - start))}
        return statistics.fmean(self.probes[i][1] for i in near) / 1e6

    def adjusted_ms(self, segments) -> float:
        """Program time of ``[(start ns, end ns), ...]`` at the reference speed."""
        program_ns = sum(end - start - self.paused_ns(start, end) for start, end in segments)
        return program_ns / 1e6 * REFERENCE_MS / self.probe_ms_around(segments)
