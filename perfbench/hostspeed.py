"""Host-speed reference for the benchmark's times.

On a shared host the same work runs up to half again as long while
neighbours load the machine, in spells from a fraction of a second to
minutes, so raw wall times of separate runs spread by as much as 28 %
(IQR over median, ten seeds, 2-vCPU Intel Xeon VM). ``HostClock``
measures the host's speed while the program runs: every ``INTERVAL_S`` a
timer signal runs a fixed reference kernel, made of the kinds of work the
program does (small BLAS products, an element-wise ``ndtr``, a row
softmax and a pure-Python loop) but none of its code, and records when it
ran and how long it took. ``scaled(start, end)`` then reports the time
between two ``time.perf_counter()`` readings less the kernel's own time
in between, in seconds at the reference speed: multiplied by
``REFERENCE_S`` over the median kernel time from ``MARGIN_S`` before the
interval to ``MARGIN_S`` after it, so that each section and each call is
scaled by the speed of the host around it. On that host, over five seeds,
the per-run median operation time of ``grow_analyze`` spread by 26 % raw
and by 5 % scaled, and that of ``train`` by 15 % and 5 %. The kernel
takes about 4 % of the host's time while it samples.

Because the kernel calls nothing in ``growformer``, a change to the
program moves the scaled times and leaves the reference unchanged.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.special import ndtr

# About the time of one kernel run on the 2-vCPU Intel Xeon VM the
# baseline was measured on, at its uncontended speed.
REFERENCE_S = 0.004
INTERVAL_S = 0.1
MARGIN_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((128, 64))
_W = _rng.standard_normal((64, 160))
_V = _rng.standard_normal((160, 64))
_VALUES = [float(x) for x in _rng.standard_normal(400)]


def _kernel() -> float:
    acc = 0.0
    for _ in range(4):
        h = _A @ _W
        s = (h * ndtr(h)) @ _V
        e = np.exp(s - s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        for v in _VALUES:
            acc += v * v
    return acc


class HostClock:
    """Samples host speed while entered: ``with clock:`` starts the timer
    signal and leaving stops it."""

    def __init__(self):
        _kernel()  # warm caches and lazy set-up before the first sample
        self.starts: list[float] = []  # perf_counter() at each sample's start
        self.took: list[float] = []  # kernel time of each sample
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.took.append(time.perf_counter() - start)

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time between two ``perf_counter()`` readings."""
        return sum(self.took[bisect.bisect_left(self.starts, start):
                             bisect.bisect_left(self.starts, end)])

    def factor(self, start: float, end: float) -> float:
        """Factor that turns a time measured from ``start`` to ``end``
        into seconds at the reference speed. An interval with no sample
        near it gets one taken here."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:
            self._sample()
            lo, hi = len(self.starts) - 1, len(self.starts)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the kernel time in
        between, at the reference speed."""
        return (end - start - self.kernel_s(start, end)) * self.factor(start, end)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
