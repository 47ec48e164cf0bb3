"""Vectorized object-dominance kernels (Def. 2).

A :class:`Profile` fixes one preference holder — a real user or a
cluster's virtual user — as (attrs, per-attr :class:`Poset`, per-attr
domain). Objects are dictionary-encoded into small integer vectors once
per profile; dominance against a whole frontier is then a handful of numpy
gathers over per-attribute boolean ``geq`` matrices::

    geq[d][i, j]  ⟺  value_i == value_j  or  value_i ≻^d value_j

``F ≻ x`` over a frontier matrix ``F`` is ``all-attrs geq`` minus the
identical rows; symmetric for ``x ≻ F``. Tests prove this kernel
equivalent to both the raw transitive-closure check and the CPS-embedding
comparison on random posets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.posets.poset import Poset

Value = Hashable
ObjectValues = tuple[Value, ...]


@dataclass(frozen=True)
class DominanceMasks:
    """Outcome of comparing one object against a frontier matrix."""

    dominated_by: np.ndarray  #: rows of F that strictly dominate x
    dominates: np.ndarray  #: rows of F strictly dominated by x
    identical: np.ndarray  #: rows of F equal to x on every attribute
    n_compared: int  #: frontier members compared (the paper's work metric)


class Profile:
    """Dominance comparator for one preference profile over fixed domains."""

    def __init__(
        self,
        attrs: Sequence[str],
        prefs: Mapping[str, Poset],
        domains: Mapping[str, Sequence[Value]],
    ):
        self.attrs = tuple(attrs)
        self._index: list[dict[Value, int]] = []
        self._geq: list[np.ndarray] = []
        for d in self.attrs:
            dom = list(domains[d])
            idx = {v: i for i, v in enumerate(dom)}
            n = len(dom)
            geq = np.eye(n, dtype=bool)
            for (x, y) in prefs[d].pairs:
                geq[idx[x], idx[y]] = True
            self._index.append(idx)
            self._geq.append(geq)

    @property
    def n_attrs(self) -> int:
        return len(self.attrs)

    def encode(self, obj: ObjectValues) -> np.ndarray:
        """Object attribute values -> int vector (one id per attribute)."""
        return np.array([self._index[k][v] for k, v in enumerate(obj)], dtype=np.int32)

    def compare(self, frontier: np.ndarray, x: np.ndarray) -> DominanceMasks:
        """Compare encoded object ``x`` against ``frontier`` (m x K int)."""
        m = frontier.shape[0]
        if m == 0:
            empty = np.zeros(0, dtype=bool)
            return DominanceMasks(empty, empty, empty, 0)
        f_geq_x = np.ones(m, dtype=bool)  # frontier row >= x on all attrs
        x_geq_f = np.ones(m, dtype=bool)  # x >= frontier row on all attrs
        eq = np.ones(m, dtype=bool)
        for k in range(self.n_attrs):
            col = frontier[:, k]
            xk = x[k]
            geq = self._geq[k]
            f_geq_x &= geq[col, xk]
            x_geq_f &= geq[xk, col]
            eq &= col == xk
        return DominanceMasks(
            dominated_by=f_geq_x & ~eq,
            dominates=x_geq_f & ~eq,
            identical=eq,
            n_compared=m,
        )

    def dominates(self, a: ObjectValues, b: ObjectValues) -> bool:
        """Scalar ``a ≻ b`` (Def. 2) — convenience for tests and oracles."""
        masks = self.compare(self.encode(b)[None, :], self.encode(a))
        return bool(masks.dominates[0])


def dominates_by_closure(
    attrs: Sequence[str],
    prefs: Mapping[str, Poset],
    a: ObjectValues,
    b: ObjectValues,
) -> bool:
    """Reference Def. 2 check straight off the transitive closures."""
    strict = False
    for k, d in enumerate(attrs):
        if a[k] == b[k]:
            continue
        if prefs[d].prefers(a[k], b[k]):
            strict = True
        else:
            return False
    return strict


def brute_force_frontier(
    profile: Profile, objects: Mapping[Hashable, ObjectValues]
) -> set[Hashable]:
    """O(n^2) Pareto frontier (Def. 3) — the test oracle for every engine.

    Each object is compared against the matrix of all objects in one call;
    its own row is identical to it, so it never counts as dominating.
    """
    ids = list(objects)
    mat = np.array([profile.encode(objects[o]) for o in ids], dtype=np.int32)
    mat = mat.reshape(len(ids), profile.n_attrs)
    return {o for o, x in zip(ids, mat) if not profile.compare(mat, x).dominated_by.any()}


@dataclass
class ComparisonCounter:
    """Accumulates the paper's "work done" metric (objects compared)."""

    total: int = 0
    by_stage: dict[str, int] = field(default_factory=dict)

    def add(self, stage: str, n: int) -> None:
        self.total += n
        self.by_stage[stage] = self.by_stage.get(stage, 0) + n
