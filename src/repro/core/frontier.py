"""Incremental Pareto frontier container shared by all engines (the
sliding-window Pareto buffers of ``core/sliding.py`` extend it).

Implements the comparison step of Alg. 1's ``updateParetoFrontier`` /
Alg. 2's ``updateParetoFrontierU`` against one :class:`Profile`: the new
object is compared to every current frontier member (counted as work),
dominated members are evicted, and the object joins the frontier unless it
is dominated. Identical objects are both Pareto-optimal (Defs. 2-3).

A frontier stores its members once: ``ids`` plus one contiguous ``(K, m)``
``intp`` array of global value ids (``core/dominance.py``), attribute-major,
whose column ``i`` encodes ``ids[i]``; :meth:`matrix` is its ``(m, K)``
view, whose transpose the kernel gathers with. Every update binds a new
array, read-only, and never writes into the old one, so an array taken
from :meth:`matrix` (or a row of it) stays valid while the frontier
changes: an append is one ``np.concatenate`` on axis 1, a discard one of
the slices on either side of the row, an eviction one ``compress`` on
axis 1 (a boolean index there gives a column-major array, which later
concatenates keep).
A frontier is not pickled as such: an engine's state keeps each object's
row once, as local ``int32`` value ids, and every frontier as indices into
them (``core/sliding.py``), so only the rows in use reach the state.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Hashable

import numpy as np

from repro.core.dominance import ROW_WINS, X_WINS, Profile

ObjectId = Hashable


@dataclass
class InsertResult:
    is_pareto: bool
    removed: list[ObjectId]
    n_compared: int


class Frontier:
    """Ids + encoded rows of the current Pareto-optimal objects."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self.ids: list[ObjectId] = []
        self._set_rows(np.zeros((profile.n_attrs, 0), dtype=np.intp))

    def __len__(self) -> int:
        return len(self.ids)

    def _set_rows(self, rows: np.ndarray) -> None:
        """Bind ``rows`` (``K x m``, contiguous), read-only from now on."""
        rows.setflags(write=False)
        self._rows = rows
        self._matrix = rows.T

    def matrix(self) -> np.ndarray:
        return self._matrix

    def insert(self, oid: ObjectId, x: np.ndarray) -> InsertResult:
        """Compare-and-update per Alg. 1; returns eviction list and work."""
        code = self.profile.compare(self.matrix(), x)
        found = code.tobytes()
        if ROW_WINS in found:
            return InsertResult(False, [], code.size)
        removed = self._evict(code) if X_WINS in found else []
        self.add_unchecked(oid, x)
        return InsertResult(True, removed, code.size)

    def _evict(self, code: np.ndarray) -> list[ObjectId]:
        """Drop the rows that ``x`` dominates (``code`` ``X_WINS``); the
        rest keep their order."""
        keep = code != X_WINS
        flags = keep.tolist()
        removed = [oid for oid, k in zip(self.ids, flags) if not k]
        self.ids = list(compress(self.ids, flags))
        self._set_rows(self._rows.compress(keep, axis=1))
        return removed

    def add_unchecked(self, oid: ObjectId, x: np.ndarray) -> None:
        self.ids.append(oid)
        self._set_rows(np.concatenate((self._rows, x[:, None]), axis=1))

    def extend(self, oids: list[ObjectId], xs: np.ndarray) -> None:
        """Append ``oids`` with their rows ``xs`` (``n x K``) unchecked, in
        order: one copy for all of them."""
        self.ids.extend(oids)
        self._set_rows(np.concatenate((self._rows, xs.T), axis=1))

    def discard(self, oid: ObjectId) -> bool:
        """Remove ``oid`` if present (no comparisons — id lookup only)."""
        try:
            i = self.ids.index(oid)
        except ValueError:
            return False
        del self.ids[i]
        rows = self._rows
        self._set_rows(np.concatenate((rows[:, :i], rows[:, i + 1:]), axis=1))
        return True
