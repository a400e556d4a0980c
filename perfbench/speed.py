"""How fast the machine runs right now, sampled in the benchmark's own thread.

Shared machines slow down by up to 2x for seconds at a time when neighbours
are busy, and both wall and CPU time stretch together, so raw timings of
identical runs spread by 20-40%.  A fixed probe kernel (a small batched
``eigh`` plus a pure-Python loop, the two kinds of work the analysis does)
timed *in the same thread* right next to the measured work slows down by
about the same factor.  End-to-end times are reported in probe-normalised
seconds:

    normalised = raw * NOMINAL_PROBE_S / mean(probe durations during the interval)

i.e. the seconds the work would take on this machine type when the probe
takes ``NOMINAL_PROBE_S``.  Raw seconds are kept in the run record.  The
probe runs from a ``SIGALRM`` handler every ``INTERVAL_S`` while sampling is
on, so no code under test is wrapped; it costs about 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Probe seconds of a quiet run on the reference machine (2-core x86_64 VM).
NOMINAL_PROBE_S = 0.0027
INTERVAL_S = 0.25
MIN_WINDOW_S = 4.0
MIN_SAMPLES = 8
TRIM = 0.1

_RNG = np.random.default_rng(0)
_BLOCKS = _RNG.standard_normal((32, 16, 16)) + 1j * _RNG.standard_normal((32, 16, 16))
_BLOCKS = _BLOCKS + _BLOCKS.conj().swapaxes(-1, -2)


def probe_seconds() -> float:
    """Duration of one fixed probe: 32 Hermitian 16x16 ``eigh`` and a Python loop."""
    start = time.perf_counter()
    np.linalg.eigh(_BLOCKS)
    table: dict[int, int] = {}
    total = 0
    for value in range(10000):
        table[value & 255] = total
        total += value * 3 % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Periodic probe samples ``(midpoint, seconds)`` on the main thread's clock."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _record(self) -> None:
        start = time.perf_counter()
        seconds = probe_seconds()
        self.samples.append((start + seconds / 2, seconds))

    def _on_alarm(self, _signum, _frame) -> None:
        self._record()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def sample_now(self, count: int) -> None:
        """Take ``count`` probes right away (around a phase that cannot be sampled)."""
        for _ in range(count):
            self._record()

    def probe_level(self, start: float, end: float) -> float:
        """Mean probe seconds over ``[start, end]`` widened to ``MIN_WINDOW_S``.

        A time sums fast and slow stretches alike, so the matching level is
        the mean, trimmed by ``TRIM`` at each end against single probes that
        were descheduled.  One probe jitters by ~20%, so short intervals
        borrow the samples around them; with fewer than ``MIN_SAMPLES`` in
        the window the nearest ``MIN_SAMPLES`` are used.
        """
        centre = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        inside = [seconds for middle, seconds in self.samples if abs(middle - centre) <= half]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - centre))
            inside = [seconds for _middle, seconds in nearest[:MIN_SAMPLES]]
        inside.sort()
        cut = int(len(inside) * TRIM)
        return statistics.fmean(inside[cut : len(inside) - cut])

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, in probe-normalised seconds."""
        return seconds * NOMINAL_PROBE_S / self.probe_level(start, end)
