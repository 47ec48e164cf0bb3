"""What a workload hands back to the runner."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)  #: end-to-end
    layer: dict[str, float | None] = field(default_factory=dict)  #: None = absent
    notes: list[str] = field(default_factory=list)


def batch_percentiles(batch_ms) -> dict[str, float]:
    """p50 and p75 of batch times: every workload has 40 batches, and p75
    is the highest percentile with at least ten of them beyond it."""
    p50, p75 = np.percentile(np.asarray(batch_ms, dtype=float), [50, 75])
    return {"batch_p50_ms": float(p50), "batch_p75_ms": float(p75)}
