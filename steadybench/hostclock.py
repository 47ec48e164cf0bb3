"""Reference unit and host-speed normalisation.

The host this benchmark was calibrated on changes speed by up to 2x
within seconds (other tenants share its cores). A fixed unit of work,
timed between slices of the measured workload, tracks that speed: the
time of each slice is divided by ``speed factor = ref time / NOMINAL_REF_S``
taken from the reference units just before and just after it.

The unit mixes what the engines spend their time on: small-numpy fancy
indexing over int32 rows and boolean ``geq`` tables, ``np.vstack`` of a
Python list of rows, and Python dict and list building. It is owned by
the benchmark and never calls the program, so a change to the program
cannot move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of one reference unit on the calibration host (4 vCPU
#: Intel Xeon VM, Python 3.11, numpy 1.26). Normalised metrics read as
#: "seconds on that host at its median speed".
NOMINAL_REF_S = 0.0050

_REPS = 60


class RefUnit:
    """A fixed, deterministic block of engine-like work."""

    def __init__(self) -> None:
        g = np.random.default_rng(20180326)
        self._geq = [g.random((12, 12)) < 0.3 for _ in range(4)]
        self._rows = [g.integers(0, 12, size=4).astype(np.int32) for _ in range(60)]
        self._keys = [f"k{i}" for i in range(60)]

    def work(self, reps: int = _REPS) -> int:
        acc = 0
        for r in range(reps):
            frontier = np.vstack(self._rows[: 20 + (r % 40)])
            x = self._rows[r % 60]
            below = np.ones(frontier.shape[0], dtype=bool)
            above = below.copy()
            for k in range(4):
                col = frontier[:, k]
                below &= self._geq[k][col, x[k]]
                above &= self._geq[k][x[k], col]
            pos = {key: i for i, key in enumerate(self._keys[: frontier.shape[0]])}
            kept = [i for i in np.flatnonzero(above).tolist() if i % 2 == 0]
            acc += int(below.sum()) + len(pos) + len(kept)
        return acc


class HostClock:
    """Times reference units and converts raw slice times to normalised ones."""

    def __init__(self) -> None:
        self._unit = RefUnit()
        self._unit.work(10)  # first-call costs stay out of the record
        self.refs: list[float] = []

    def tick(self) -> float:
        """Run one reference unit; returns (and records) its time in seconds.

        The unit runs as three equal chunks and counts three times the
        fastest: a spike (an interrupt, a stolen time slice) only ever adds
        time, and one in the unit would skew a whole slice's factor.
        """
        chunks = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._unit.work(_REPS // 3)
            chunks.append(time.perf_counter() - t0)
        dt = 3 * min(chunks)
        self.refs.append(dt)
        return dt

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Speed factor for work bracketed by two reference units."""
        return (before + after) / 2 / NOMINAL_REF_S

    def timed(self, fn):
        """Call ``fn()`` between two reference units; (result, normalised s)."""
        before = self.tick()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        return out, dt / self.factor(before, self.tick())

    def speed_factor(self) -> float:
        """Median speed factor over the whole run (a diagnostic)."""
        return statistics.median(self.refs) / NOMINAL_REF_S
