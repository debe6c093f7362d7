"""Rescaling measured times to a fixed machine speed.

The benchmark runs on a few cores of a shared host.  Its speed is not
steady: a single-threaded Python loop runs up to 1.6 times slower for
tens to hundreds of milliseconds at a time while other tenants load the
core, and the share of slow periods differs from one run to the next.
That moves the median latency of a 20 s run by 30% while the program
stays the same.

A :class:`SpeedClock` samples the machine's speed with a short fixed
probe, pure-Python work of the kind the program does (dict updates,
integer arithmetic, building and sorting tuples), run between
operations with the cyclic collector off so that only the machine's
speed sets its time.  Each timed interval is rescaled by the probes on
either side of it::

    reported = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

A reported time is what the interval would have taken on a machine
where the probe takes :data:`REFERENCE_PROBE_S`, about its time on an
uncontended core, so reported and uncontended wall times are close.
The probe is the benchmark's own code: a change to the program moves
every reported time by its own effect, and cannot move the probe.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Least time between two probes taken by :meth:`SpeedClock.tick`.
PROBE_INTERVAL_S = 0.005
#: The probe time a reported time is rescaled to.
REFERENCE_PROBE_S = 0.25e-3
#: Loop length of one probe (about 0.25 ms of work).
PROBE_STEPS = 1500


def _probe_work() -> int:
    table: dict[int, int] = {}
    for i in range(PROBE_STEPS):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items()))


class SpeedClock:
    """Probe times in order, and the rescaling of intervals between them."""

    def __init__(self) -> None:
        #: Start of each probe (``time.perf_counter``) and its duration.
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        """Take one probe now, outside any timed interval."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.costs.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Take a probe if :data:`PROBE_INTERVAL_S` has passed since the
        last one; call it between operations."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds measured from ``start``, rescaled by the
        last probe before ``start`` and the first one after it."""
        after = bisect.bisect_right(self.starts, start)
        around = self.costs[max(0, after - 1):after + 1]
        if not around:
            raise ValueError("no probe was taken")
        return elapsed * REFERENCE_PROBE_S / statistics.fmean(around)

    def scale_all(self, timed) -> list[float]:
        """:meth:`scale` over ``(start, elapsed)`` pairs."""
        return [self.scale(start, elapsed) for start, elapsed in timed]

    def summary(self) -> dict:
        costs = self.costs
        return {"probes": len(costs),
                "median_ms": statistics.median(costs) * 1e3 if costs else None,
                "reference_ms": REFERENCE_PROBE_S * 1e3}
