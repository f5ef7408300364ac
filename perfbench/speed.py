"""Machine-speed calibration for timings taken on a shared machine.

On a shared two-core box the speed of all code drifts by +-15% over tens
of seconds, and medians over one run cannot average that away.  So ops are
timed between calibration points, each the median of three runs of a fixed
kernel.  An op's time is scaled by the kernel's reference time over the
mean of the two points around it; ops shorter than CALIBRATE_EVERY_S share
points with their neighbours.  A reported time is the time the op takes
when the kernel takes its reference time; raw times are kept next to it.
"""

import time

import numpy as np

# Ops shorter than this share a calibration point with the ops after them.
CALIBRATE_EVERY_S = 0.25


class Kernel:
    """The fixed work timed at each calibration point.

    Every kernel runs a pure-Python dict loop, which is interpreter-bound
    like the exact layers and the small-n sweeps.  The plain kernel adds a
    numpy sort of 2 MB.  The memory-bound one adds instead a Philox
    permutation of 2^18, the sweeps' draw, and a random gather over an 8 MB
    array, like the n = 10^6 kernel's scatter and gather, because
    slowdowns of memory-bound work on this box do not show in the sort.
    """

    def __init__(self, memory_bound: bool = False):
        rng = np.random.default_rng(0)
        self.memory_bound = memory_bound
        # About the kernel's median time on the two-core box the benchmark
        # was written on; any fixed value works, it only sets the scale.
        self.reference_s = 0.024 if memory_bound else 0.010
        if memory_bound:
            self._gather_from = rng.random(1 << 20)
            self._gather_at = rng.permutation(1 << 20)
        else:
            self._sort_input = rng.random(1 << 18)

    def _run(self) -> None:
        counts = {}
        for i in range(40_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        if self.memory_bound:
            np.random.Generator(np.random.Philox(7)).permutation(1 << 18)
            self._gather_from[self._gather_at]
        else:
            np.sort(self._sort_input)

    def seconds(self) -> float:
        """One calibration point: the median of three kernel runs, so that
        a single stalled run does not skew the ops around it."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two calibration points
        into reference-speed seconds."""
        return self.reference_s / ((before + after) / 2.0)
