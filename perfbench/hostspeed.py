"""Host-speed calibration: timings in reference seconds.

The benchmark runs on a few cores of a shared host. Its spans are in
CPU seconds of the benchmark process, which leaves out the time another
process holds the core, but the core's own speed still drifts by up to
2x within tens of seconds as neighbours load the host: the same
simulation then takes anywhere from 0.42 s to 0.74 s of CPU time. To
measure the simulator rather than the neighbours, a pass runs a fixed
pure-Python loop (dict lookups and stores on small ints, the interpreter
work the simulator does most) between its steps. A stretch of CPU time
between two such calibrations is scaled by ``REFERENCE_S`` over the
mean CPU time of the loop at its two ends, and the calibrations
themselves are left out. The result is *reference seconds*: the time
the step would take on a core where the loop takes ``REFERENCE_S``.

The loop is part of the benchmark, not of ``src/``, so a change to the
simulator cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
from typing import List

from spans import perf

#: calibration loop time, in CPU seconds, that defines a reference
#: second (about its median on the 2-vCPU Xeon host the benchmark was
#: defined on)
REFERENCE_S = 0.020

_ITERATIONS = 100_000


def _loop() -> float:
    start = perf()
    table: dict = {}
    for i in range(_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return perf() - start


class HostClock:
    """Calibration marks of one process and the map from its CPU time to
    reference time that they define."""

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.loops: List[float] = []

    def calibrate(self) -> None:
        start = perf()
        loop = _loop()
        self.starts.append(start)
        self.ends.append(perf())
        self.loops.append(loop)

    def median_loop_s(self) -> float:
        return statistics.median(self.loops)

    def _factor(self, stretch: int) -> float:
        """Scale of stretch ``i``: from the end of calibration ``i`` to
        the start of calibration ``i + 1``; the stretches before the
        first and after the last calibration use that one's loop."""
        last = len(self.loops) - 1
        before = self.loops[min(max(stretch, 0), last)]
        after = self.loops[min(max(stretch + 1, 0), last)]
        return 2 * REFERENCE_S / (before + after)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the CPU-time interval [start, end],
        without the calibrations that fall inside it."""
        if not self.loops:
            raise RuntimeError("no calibration yet")
        total = 0.0
        stretch = bisect.bisect_right(self.ends, start) - 1
        while start < end:
            # stretch i runs from ends[i] to starts[i + 1]
            stop = (self.starts[stretch + 1]
                    if stretch + 1 < len(self.starts) else end)
            piece_end = min(end, stop)
            if piece_end > start:
                total += (piece_end - start) * self._factor(stretch)
            stretch += 1
            if stretch < len(self.ends):
                start = max(start, self.ends[stretch])
            else:
                break
        return total


#: the benchmark process's clock; sweep points run in this process too
CLOCK = HostClock()
