"""Host-speed calibration kernel, independent of segphrase.

The VM this benchmark runs on drifts in speed by up to a third between
and within runs, and CPU time drifts with wall time. Every time the
benchmark reports is therefore scaled to a reference speed: a fixed
kernel runs next to the measured work, and a measured time ``t`` is
reported as ``t * REFERENCE_S / kernel_time``. The kernel mixes what the
program's hot paths do: windowed numpy arithmetic and masked assignment
over a small image (as in the superpixel loop) and a Python dict loop (as
in parsing and graph bookkeeping).
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-core VM the benchmark was sized on, so scaled
# times read close to wall times there.
REFERENCE_S = 0.016

_SIZE = 160
_CENTRES = 300
_REACH = 12


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.random((_SIZE, _SIZE))
        self.xs, self.ys = np.meshgrid(np.arange(_SIZE, dtype=np.float64),
                                       np.arange(_SIZE, dtype=np.float64))
        self.cx = rng.uniform(0, _SIZE, _CENTRES)
        self.cy = rng.uniform(0, _SIZE, _CENTRES)
        self.ci = rng.random(_CENTRES)
        self.times: list[float] = []

    def measure(self) -> float:
        """Run the kernel once; returns and records its wall time in s."""
        t0 = time.perf_counter()
        dist = np.full(self.image.shape, np.inf)
        assign = np.zeros(self.image.shape, dtype=np.int32)
        for k in range(_CENTRES):
            x0 = max(0, int(self.cx[k]) - _REACH)
            x1 = min(_SIZE, int(self.cx[k]) + _REACH + 1)
            y0 = max(0, int(self.cy[k]) - _REACH)
            y1 = min(_SIZE, int(self.cy[k]) + _REACH + 1)
            dx = self.xs[y0:y1, x0:x1] - self.cx[k]
            dy = self.ys[y0:y1, x0:x1] - self.cy[k]
            di = (self.image[y0:y1, x0:x1] - self.ci[k]) / 0.2
            d2 = (dx * dx + dy * dy) / 36.0 + di * di
            closer = d2 < dist[y0:y1, x0:x1]
            dist[y0:y1, x0:x1][closer] = d2[closer]
            assign[y0:y1, x0:x1][closer] = k
        counts: dict[int, int] = {}
        for v in assign.ravel()[:20000].tolist():
            counts[v] = counts.get(v, 0) + 1
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def scale(self, seconds: float, kernel_seconds: float) -> float:
        """A measured time scaled to the reference speed."""
        return seconds * REFERENCE_S / kernel_seconds
