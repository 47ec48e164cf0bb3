"""Incremental Pareto frontier container shared by all engines (the
sliding-window Pareto buffers of ``core/sliding.py`` extend it).

Implements the comparison step of Alg. 1's ``updateParetoFrontier`` /
Alg. 2's ``updateParetoFrontierU`` against one :class:`Profile`: the new
object is compared to every current frontier member (counted as work),
dominated members are evicted, and the object joins the frontier unless it
is dominated. Identical objects are both Pareto-optimal (Defs. 2-3).

A frontier stores its members once: ``ids`` plus one ``int32`` matrix whose
row ``i`` is the encoding of ``ids[i]``. Every update binds a new matrix
and never writes into the old one, so an array taken from :meth:`matrix`
(or a row of it) stays valid while the frontier changes: an append or a
discard is one ``np.concatenate`` into a new array, an eviction one boolean
index. A frontier is not pickled as such: an engine's state keeps each
object's row once and every frontier as indices into them
(``core/sliding.py``), so only the rows in use reach the state. Appending
into spare rows, about 6% faster on the append-only benchmark when it was
tried, was turned down because it doubled the pickled state; with that
layout it would not.
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
        self._matrix = np.zeros((0, profile.n_attrs), dtype=np.int32)

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        return self._matrix

    def insert(self, oid: ObjectId, x: np.ndarray) -> InsertResult:
        """Compare-and-update per Alg. 1; returns eviction list and work."""
        masks = self.profile.compare(self.matrix(), x)
        if np.count_nonzero(masks.dominated_by):
            return InsertResult(False, [], masks.n_compared)
        removed = self._evict(masks.dominates)
        self.add_unchecked(oid, x)
        return InsertResult(True, removed, masks.n_compared)

    def _evict(self, mask: np.ndarray) -> list[ObjectId]:
        """Drop the rows ``mask`` marks; the rest keep their order."""
        if not np.count_nonzero(mask):
            return []
        keep = ~mask
        flags = keep.tolist()
        removed = [oid for oid, k in zip(self.ids, flags) if not k]
        self.ids = list(compress(self.ids, flags))
        self._matrix = self._matrix[keep]
        return removed

    def dominated_by_frontier(self, x: np.ndarray) -> tuple[bool, int]:
        """Read-only check used by the mend paths of the SW engines."""
        masks = self.profile.compare(self.matrix(), x)
        return bool(np.count_nonzero(masks.dominated_by)), masks.n_compared

    def add_unchecked(self, oid: ObjectId, x: np.ndarray) -> None:
        self.ids.append(oid)
        self._matrix = np.concatenate((self._matrix, x[None]))

    def discard(self, oid: ObjectId) -> bool:
        """Remove ``oid`` if present (no comparisons — id lookup only)."""
        try:
            i = self.ids.index(oid)
        except ValueError:
            return False
        del self.ids[i]
        self._matrix = np.concatenate((self._matrix[:i], self._matrix[i + 1:]))
        return True
