"""Host-speed calibration, so timings from a shared machine stay comparable.

On a host whose cores are shared with other tenants, the same pure-Python
work can take 1.5x longer for stretches of seconds to minutes. A run then
reads slow or fast depending on when it ran, not on the code. The
benchmark therefore times a fixed calibration loop between operations and
rescales each operation's latency to a reference speed:

    normalised = latency * REF_SECONDS / (calibration time around it)

The calibration loop is part of the benchmark, never of the program, so it
is identical on both sides of any comparison. Raw wall-clock figures are
kept beside the normalised ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# the calibration loop takes this long on the reference machine: an
# uncontended core of a 2.1 GHz Xeon running CPython 3.11
REF_SECONDS = 1.4e-3
CAL_ITERS = 20_000
EVERY_SECONDS = 0.05


def calibration_loop() -> int:
    acc = 0
    for i in range(CAL_ITERS):
        acc = (acc + i * i) % 257
    return acc


def probe() -> float:
    """Median of three timed runs of the calibration loop, in seconds."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SpeedLog:
    """Calibration samples taken between timed executions.

    A sample records how many executions had completed when it was taken;
    execution k is rescaled by the mean of the last sample before it and
    the first sample after it."""

    def __init__(self):
        self.positions: list[int] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self, executions: int, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= EVERY_SECONDS:
            self.positions.append(executions)
            self.seconds.append(probe())
            self._last = time.perf_counter()

    def factor(self, k: int) -> float:
        """REF_SECONDS over the calibration time around execution k."""
        before = bisect.bisect_right(self.positions, k) - 1
        after = bisect.bisect_left(self.positions, k + 1)
        around = (self.seconds[before] + self.seconds[after]) / 2
        return REF_SECONDS / around

    def host_speed(self) -> float:
        """Median host speed relative to the reference machine."""
        return REF_SECONDS / statistics.median(self.seconds)
