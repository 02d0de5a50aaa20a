"""Host-speed calibration for the end-to-end timings.

The 2-core virtual machine this benchmark was built on shares its host, and
the speed of a pure-Python loop there shifts by up to 40%, in steps that last
5-20 seconds.  Timed raw, the same operations on the same code read 25% apart
from one run to the next.  So a fixed kernel that calls nothing in kinarow is
timed before each operation and, every SAMPLE_EVERY_S, inside operations that
last longer than that.  An operation's time, less the kernel runs inside it,
is scaled by REFERENCE_S / (median kernel time near the operation): it reads
as the time the operation takes on a host where the kernel takes REFERENCE_S.

"Near" is inside the operation when it holds MIN_INSIDE samples or more, else
within WINDOW_S of it.  Samples outside a 9-second operation do not track the
host during it: on the same eight runs of prove-opening, ops_per_s spread
7.9% across seeds when calibrated from samples between operations only, and
3.9% with samples inside.

The kernel is integer arithmetic that keeps no object alive and touches a few
cache lines, so a slowdown the program causes in its own process (a larger
heap, allocator or cache pressure) does not slow the kernel as well and get
divided back out.  The last kernel run inside an operation and one run right
after it read alike (ratio 0.88-1.04 over nine runs of prove-opening), also
while the operation churned some 50 MB of objects; and when the program was
made to do its work twice, calibrated ops_per_s fell to 0.509 of its value,
uncalibrated to 0.508.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# About the median kernel time on the 2-core virtual machine that recorded the baseline.
REFERENCE_S = 0.006
WINDOW_S = 3.0
SAMPLE_EVERY_S = 0.25
MIN_INSIDE = 5


def kernel_seconds() -> float:
    """Time a fixed integer loop.  Each int it makes is freed before the next."""
    start = perf_counter()
    x = 0
    for i in range(60_000):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` measured next to a kernel run of `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Timeline:
    """Kernel samples of one run, and the time spent taking them inside operations."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.inside_s = 0.0
        self._sorted: tuple[list[float], list[float]] | None = None

    def sample(self) -> None:
        at = perf_counter()
        self.samples.append((at, kernel_seconds()))
        self._sorted = None

    def _interrupt(self, signum, frame) -> None:
        self.sample()
        self.inside_s += perf_counter() - self.samples[-1][0]

    @contextmanager
    def inside(self):
        """Sample every SAMPLE_EVERY_S while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds` of an operation that ran from `start` to `end` (kernel
        runs inside it excluded from `seconds`), at reference speed."""
        if self._sorted is None:
            ordered = sorted(self.samples)
            self._sorted = ([a for a, _ in ordered], [k for _, k in ordered])
        at, kernel = self._sorted
        lo, hi = bisect_left(at, start), bisect_right(at, end)
        if hi - lo < MIN_INSIDE:
            lo, hi = bisect_left(at, start - WINDOW_S), bisect_right(at, end + WINDOW_S)
        return scaled(seconds, median(kernel[lo:hi]))
