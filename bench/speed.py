"""Host-speed probe: how fast one CPU ran while a command ran on it.

On a shared host the speed of a CPU drifts over tens of seconds as other
tenants come and go: a fixed pure-Python loop can take 1.7 times as long in
one half-minute as in the next. Every command of a run is pinned to one
CPU, and a probe thread of the benchmark's own process, pinned to the same
CPU, wakes every PERIOD_S to time a short fixed loop (about 4 % of that
CPU). A command's
speed-adjusted time is its wall time times the mean of REFERENCE_S over
each probe time while it ran (the CPU's mean speed relative to reference):
the seconds it would take on a host where one probe loop takes REFERENCE_S. The main thread waits in `os.wait4` while a command runs,
so it holds no GIL the probe needs.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import threading
import time

LOOP = 12_000        # iterations of the probe loop; about 1 ms on a 2 GHz Xeon
REFERENCE_S = 0.001  # a probe loop of this length counts as reference speed
PERIOD_S = 0.02
MIN_SAMPLES = 3      # a command shorter than this many periods uses the latest probes


def probe_loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples probe_loop on `cpu` every PERIOD_S until stopped."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.is_set():
            start = time.perf_counter()
            # times before starts: a reader never sees a start without its time
            self.times.append(probe_loop())
            self.starts.append(start)
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean speed relative to reference, REFERENCE_S / probe time, over
        the loops started in [start, end], or over the latest MIN_SAMPLES
        loops if fewer started."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, hi - MIN_SAMPLES)
        window = self.times[lo:hi]
        if not window:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(REFERENCE_S / t for t in window)


@contextlib.contextmanager
def pinned(cpu: int):
    """Pin the calling thread, and so every child it starts, to `cpu`."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def probe_cpu() -> int:
    """The CPU that commands and probe share: the highest one this process
    may use, away from CPU 0, which takes most device interrupts."""
    return max(os.sched_getaffinity(0))
