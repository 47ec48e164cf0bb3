"""Incremental Pareto frontier container shared by all engines (the
sliding-window Pareto buffers of ``core/sliding.py`` extend it).

Implements the comparison step of Alg. 1's ``updateParetoFrontier`` /
Alg. 2's ``updateParetoFrontierU`` against one :class:`Profile`: the new
object is compared to every current frontier member (counted as work),
dominated members are evicted, and the object joins the frontier unless it
is dominated. Identical objects are both Pareto-optimal (Defs. 2-3).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Hashable

import numpy as np

from repro.core.dominance import Profile

ObjectId = Hashable


@dataclass
class InsertResult:
    is_pareto: bool
    removed: list[ObjectId]
    n_compared: int


class Frontier:
    """Ids + encoded matrix of the current Pareto-optimal objects."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self.ids: list[ObjectId] = []
        self._rows: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._pos

    @property
    def _pos(self) -> dict[ObjectId, int]:
        return {oid: i for i, oid in enumerate(self.ids)}

    def matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.profile.n_attrs), dtype=np.int32)
        return np.vstack(self._rows)

    def insert(self, oid: ObjectId, x: np.ndarray) -> InsertResult:
        """Compare-and-update per Alg. 1; returns eviction list and work."""
        masks = self.profile.compare(self.matrix(), x)
        if masks.dominated_by.any():
            return InsertResult(False, [], masks.n_compared)
        removed = self._evict(masks.dominates)
        self.add_unchecked(oid, x)
        return InsertResult(True, removed, masks.n_compared)

    def _evict(self, mask: np.ndarray) -> list[ObjectId]:
        """Drop the rows ``mask`` marks; the rest keep their order."""
        if not mask.any():
            return []
        keep = (~mask).tolist()
        removed = [oid for oid, k in zip(self.ids, keep) if not k]
        self.ids = list(compress(self.ids, keep))
        self._rows = list(compress(self._rows, keep))
        return removed

    def dominated_by_frontier(self, x: np.ndarray) -> tuple[bool, int]:
        """Read-only check used by the mend paths of the SW engines."""
        masks = self.profile.compare(self.matrix(), x)
        return bool(masks.dominated_by.any()), masks.n_compared

    def add_unchecked(self, oid: ObjectId, x: np.ndarray) -> None:
        self.ids.append(oid)
        self._rows.append(x)

    def discard(self, oid: ObjectId) -> bool:
        """Remove ``oid`` if present (no comparisons — id lookup only)."""
        try:
            i = self.ids.index(oid)
        except ValueError:
            return False
        del self.ids[i]
        del self._rows[i]
        return True
