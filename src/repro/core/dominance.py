"""Vectorized object-dominance kernels (Def. 2).

A :class:`Profile` fixes one preference holder — a real user or a
cluster's virtual user — as (attrs, per-attr :class:`Poset`, per-attr
domain). Objects are dictionary-encoded into small integer vectors once
per profile. Per attribute ``d`` with ``n_d`` values the profile keeps a
2-bit code for every ordered pair of an object's value ``u`` and a
frontier row's value ``v``::

    code_d[u, v] = geq_d[v, u] | geq_d[u, v] << 1
    geq_d[i, j]  ⟺  value_i == value_j  or  value_i ≻^d value_j

All codes sit raveled in one flat ``uint8`` table (attribute ``d`` at
offset ``base_d``, row stride ``n_d``), so comparing ``x`` against a whole
frontier matrix ``F`` is one gather ``table[base + x * n + F]`` and one
AND over the attributes. Bit 0 of the result says "row ≽ x on every
attribute", bit 1 "x ≽ row on every attribute". A strict partial order is
antisymmetric, so both bits together mean the row equals ``x``: code 1 is
``row ≻ x``, 2 is ``x ≻ row`` and 3 is identical. The index is built
attribute-major (``F.T``) so that the AND runs over whole rows of the
gathered array rather than along its short last axis. :meth:`Profile.compare`
returns that code array; each mask is one compare against a ``uint8``
constant, made only when a caller reads it. ``x`` may also be a ``(c, K)``
matrix of objects, which gives ``(c, m)`` codes from the same gather. Tests
prove this kernel equivalent to both the raw transitive-closure check and
the CPS-embedding comparison on random posets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.posets.poset import Poset

Value = Hashable
ObjectValues = tuple[Value, ...]


_ROW_WINS, _X_WINS, _EQUAL = np.uint8(1), np.uint8(2), np.uint8(3)


class DominanceMasks:
    """Outcome of comparing an object (or each of ``c`` objects) against a
    frontier matrix ``F``; masks are derived from ``code`` when read."""

    __slots__ = ("code", "n_compared")

    def __init__(self, code: np.ndarray, n_compared: int):
        self.code = code  #: AND-reduced 2-bit codes, shape ``(m,)`` or ``(c, m)``
        self.n_compared = n_compared  #: object pairs compared (the paper's work metric)

    dominated_by = property(lambda self: self.code == _ROW_WINS,
                            doc="rows of F that strictly dominate x")
    dominates = property(lambda self: self.code == _X_WINS,
                         doc="rows of F strictly dominated by x")
    identical = property(lambda self: self.code == _EQUAL,
                         doc="rows of F equal to x on every attribute")


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
        codes = []
        for d in self.attrs:
            dom = list(domains[d])
            idx = {v: i for i, v in enumerate(dom)}
            geq = np.eye(len(dom), dtype=np.uint8)
            for (x, y) in prefs[d].pairs:
                geq[idx[x], idx[y]] = 1
            self._index.append(idx)
            codes.append((geq.T | geq << 1).ravel())
        self._table = np.concatenate(codes)
        # Per-attribute stride n_d and table offset base_d.
        self._n = np.array([len(idx) for idx in self._index], dtype=np.intp)
        self._base = np.cumsum(self._n**2) - self._n**2

    @property
    def n_attrs(self) -> int:
        return len(self.attrs)

    def encode(self, obj: ObjectValues) -> np.ndarray:
        """Object attribute values -> int vector (one id per attribute)."""
        return np.array([self._index[k][v] for k, v in enumerate(obj)], dtype=np.int32)

    def compare(self, frontier: np.ndarray, x: np.ndarray) -> DominanceMasks:
        """Compare encoded object ``x`` (``K``), or each row of ``x``
        (``c x K``), against ``frontier`` (``m x K`` int)."""
        idx = np.add(frontier.T, (self._base + x * self._n)[..., None], order="C")
        code = np.bitwise_and.reduce(self._table[idx], axis=-2)
        return DominanceMasks(code, code.size)

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
