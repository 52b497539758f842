"""Machine-speed gauge: times are reported at a fixed reference speed.

On a shared host the same request can take twice as long from one minute to
the next, because other tenants load the machine. To keep run-to-run spread
small, the benchmark interleaves a fixed reference chunk (small numpy calls
plus Python bytecode, the same mix qtetra spends its time on) with the work,
and scales every measured time by ``NOMINAL_S / chunk time`` measured next to
it. A reported time therefore reads as the time on a machine that runs the
chunk in exactly ``NOMINAL_S``. Raw times stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.004  # reference chunk time that reported times are scaled to
NEIGHBOURS = 4  # chunks on each side of an interval that set its factor
SLOW_S = 4 * NOMINAL_S  # requests longer than this get chunks right after them


def _chunk_factory():
    import numpy as np

    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2)
    one = np.array([[1.0 + 0.0j]])
    vec = np.ones(16, dtype=complex)

    def chunk() -> float:
        acc = 0.0
        for i in range(20):
            m = one
            for k in range(4):
                m = np.kron(m, x if k == i % 4 else eye)
            acc += float(np.linalg.norm(m @ vec))
        s = 0
        for i in range(30000):
            s += i * i
        return acc + s

    return chunk


class SpeedGauge:
    """Reference chunks stamped with their start times."""

    def __init__(self):
        self._chunk = _chunk_factory()
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, count: int = 2) -> None:
        clock = time.perf_counter
        for _ in range(count):
            start = clock()
            self._chunk()
            self.starts.append(start)
            self.times.append(clock() - start)

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end]: NOMINAL_S over the median
        of the NEIGHBOURS chunks just before ``start`` and just after ``end``."""
        before = bisect.bisect_left(self.starts, start)
        after = bisect.bisect_right(self.starts, end)
        near = self.times[max(0, before - NEIGHBOURS):before] + self.times[after:after + NEIGHBOURS]
        if not near:
            raise ValueError("no reference chunk measured next to this interval")
        return NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale(self, records) -> None:
        """Add ``scaled``: each record's ``latency`` at the reference speed."""
        for r in records:
            r["scaled"] = r["latency"] * self.factor(r["start"], r["start"] + r["latency"])
