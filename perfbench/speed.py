"""Host speed probe: a fixed computation that shares no code with gatefid.

A shared host, such as a 2-vCPU KVM guest, changes speed by tens of percent
for seconds to minutes at a time, so raw times of one run differ from the
next by more than any bound worth keeping. A run times this probe between
its ops and scales each end-to-end time by REFERENCE_S / median(probes
around it): a time then reads as it would on a host where the probe takes
REFERENCE_S.
Program changes move the scaled times exactly as they move the raw ones,
because the probe does not touch the program. Raw times stay in `# detail`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on a 2-vCPU Intel Xeon (4th generation) KVM guest in a fast phase.
REFERENCE_S = 0.0045
# Least time between two probes; probes land only between ops.
INTERVAL_S = 0.25
# Probes this close to a timed interval give that interval's host speed.
WINDOW_S = 1.0


class SpeedProbe:
    """Times the reference computation at most every INTERVAL_S seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 2**63, size=50_000, dtype=np.uint64)
        self._mats = rng.standard_normal((32, 4, 4)) + 1j * rng.standard_normal((32, 4, 4))
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0
        self._last = -INTERVAL_S

    def _reference(self) -> None:
        # interpreter integer work, word-level bit counting, small dense algebra:
        # the three kinds of work the workloads spend their time in
        s = 0
        for i in range(40_000):
            s += i * i
        for _ in range(8):
            np.bitwise_count(self._words & (self._words >> np.uint64(3))).sum()
        for _ in range(8):
            np.linalg.qr(self._mats)

    def sample(self) -> None:
        started = time.perf_counter()
        self._reference()
        self._last = time.perf_counter()
        self.samples.append(((started + self._last) / 2, self._last - started))
        self.spent += self._last - started

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def scaled(self, start: float, end: float, value: float) -> float:
        """`value`, timed over [start, end], at reference speed: scaled by the
        median probe within WINDOW_S of the interval, or of the run if none is."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return value * REFERENCE_S / (statistics.median(near) if near else self.median())
