"""Host-speed probe: corrects host times for the speed swings of a shared host.

On a shared machine the same pass can take 20-30 % longer for a minute
at a time while neighbours load the CPU.  A short fixed kernel with the
simulator's mix of work (interpreter loops, dict updates and small
numpy gathers and reductions) is timed before and after every unit of a
pass.  Its time rises and falls with the unit's, so a unit's time
multiplied by ``NOMINAL_S / probe time`` reads what it would take on a
host whose probe takes ``NOMINAL_S``.  The kernel lives in the
benchmark, so no change to the program can alter it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Probe time of the reference host the corrected times are reported at
#: (the median probe on a 2-vCPU Intel Xeon VM with Python 3.11).
NOMINAL_S = 0.018


class SpeedProbe:
    """Times the fixed kernel around each timed call of an interval."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random((64, 32))
        self._rows = rng.integers(0, 64, size=(400, 8))
        self._samples: List[float] = []
        self._work: List[float] = []

    def sample(self) -> None:
        """Run the kernel once and record its duration."""
        start = time.perf_counter()
        counts: dict = {}
        total = 0.0
        for _ in range(4):
            for k, rows in enumerate(self._rows):
                block = self._table[rows]
                total += float(np.minimum(block, block[::-1]).max(axis=1).sum())
                for j in range(8):
                    key = (k + j) & 255
                    counts[key] = counts.get(key, 0) + j
        self._samples.append(time.perf_counter() - start)

    def run(self, call: Callable[[], T]) -> T:
        """Sample the host speed, then run ``call`` and record its host time."""
        self.sample()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._work.append(time.perf_counter() - start)

    def close(self, elapsed: float) -> Tuple[float, float]:
        """End an interval of ``elapsed`` host seconds made of ``run`` calls.

        Takes one more sample, then returns ``(raw_s, factor)``: the host
        time without the samples taken inside the interval, and the
        factor that corrects it to the reference host speed.  Each call
        is corrected by the samples on either side of it, the remainder
        by the mean sample.
        """
        raw = elapsed - sum(self._samples)
        self.sample()
        samples, work = self._samples, self._work
        self._samples, self._work = [], []
        speeds = [2 * NOMINAL_S / (a + b) for a, b in zip(samples, samples[1:])]
        rest = (raw - sum(work)) * NOMINAL_S / statistics.fmean(samples)
        corrected = sum(w * f for w, f in zip(work, speeds)) + rest
        return raw, corrected / raw
