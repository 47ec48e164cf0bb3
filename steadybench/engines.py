"""Engine construction and the timed closed-loop replay.

Construction tolerates the engine fold ROADMAP item 2 plans: when
``FTVEngine`` is gone, an append-only engine is ``FTVSWEngine`` with no
window.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from steadybench.hostclock import HostClock


def make_ftv(pop, clusters, window: int | None):
    if window is None:
        try:
            from repro.core.ftv import FTVEngine
        except ImportError:
            pass  # folded into FTVSWEngine, built below without a window
        else:
            return FTVEngine(pop.attrs, clusters, pop.prefs, pop.domains)
    from repro.core.sliding import FTVSWEngine

    return FTVSWEngine(pop.attrs, clusters, pop.prefs, pop.domains, window=window)


@dataclass
class Replay:
    raw_ns: np.ndarray  #: insert() time of each arrival
    norm_ns: np.ndarray  #: the same, divided by the slice's speed factor
    emitted: list  #: per arrival step: set of (user, object) emitted
    failed: int  #: arrivals whose insert() raised


def replay(engine, stream, clock: HostClock, slice_len: int) -> Replay:
    """Closed loop, one caller: insert each object after the last returns.

    A reference unit runs before the first slice and after every slice of
    ``slice_len`` arrivals. Only the ``insert`` calls are timed.
    """
    n = len(stream)
    raw = np.zeros(n)
    norm = np.zeros(n)
    emitted = []
    failed = 0
    dis = getattr(engine, "disseminated", None)
    seen: set = set()
    before = clock.tick()
    for lo in range(0, n, slice_len):
        hi = min(n, lo + slice_len)
        for j in range(lo, hi):
            oid, vals = stream[j]
            t0 = time.perf_counter_ns()
            try:
                targets = engine.insert(oid, vals)
            except Exception:  # an arrival that raises is a failed arrival
                traceback.print_exc()
                failed += 1
                emitted.append(set())
                continue
            raw[j] = time.perf_counter_ns() - t0
            step = {(u, oid) for u in targets}
            if dis is not None and len(dis) != len(seen) + len(step):
                step = dis - seen  # mend promotions happened in this step
            if dis is not None:
                seen |= step
            emitted.append(step)
        after = clock.tick()
        norm[lo:hi] = raw[lo:hi] / clock.factor(before, after)
        before = after
    return Replay(raw, norm, emitted, failed)
