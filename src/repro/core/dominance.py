"""Vectorized object-dominance kernels (Def. 2).

A :class:`Profile` fixes one preference holder — a real user or a
cluster's virtual user — as (attrs, per-attr :class:`Poset`, per-attr
domain). Per attribute ``d`` with ``n_d`` values the profile keeps a 2-bit
code for every ordered pair of an object's value ``u`` and a frontier
row's value ``v``::

    code_d[u, v] = geq_d[v, u] | geq_d[u, v] << 1
    geq_d[i, j]  ⟺  value_i == value_j  or  value_i ≻^d value_j

All codes sit raveled in one flat ``uint8`` table (attribute ``d`` at
offset ``base_d``, row stride ``n_d``). Bit 0 of a code says "row ≽ x",
bit 1 "x ≽ row". AND-ed over the attributes, a strict partial order's
antisymmetry makes code 1 mean ``row ≻ x``, 2 ``x ≻ row`` and 3 identical.

An :class:`Encoder` dictionary-encodes objects once for every profile over
the same domains: attribute ``d``'s value ``v`` gets the global id
``g = col_d + v``, where ``col_d = n_0 + … + n_{d-1}``, so one id names an
(attribute, value) pair. For an object ``x`` the encoder computes, once,
the table indices of its *code row*: for every global id ``g`` (every
value of every domain, Σ n_d entries) the index of ``code_d[x_d, v]``. A
profile gathers its own codes at those indices, so its row ``R`` holds
``x``'s code against every value of every attribute, and comparing ``x``
with a whole frontier ``F`` of global ids is ``R[F.T]`` and one AND over
the attributes: two numpy calls. Frontiers keep their rows
attribute-major, so ``F.T`` is contiguous and the AND runs over whole
rows. ``x`` may also be a ``(c, K)`` matrix of objects: its ``(c, m)``
codes are gathered straight from the table at ``_off[F.T] + x_d · n_d``,
with no code row, since such a matrix is built afresh for one call.
A :class:`ProfileStack` keeps several profiles' tables as rows of one
``(H, table)`` array and compares for any of them at once: one object
against a frontier under each chosen profile, or each of a matrix's rows
under its own profile. It gathers each pair's code row from the stack,
then the frontier's columns of those rows, and ANDs; the sliding-window
member mend checks all holders of an expiring object, and then all their
candidates, that way.

:meth:`Profile.compare` returns the AND-reduced code array itself: its
size is the number of pairs compared, and callers test it against
``ROW_WINS``, ``X_WINS`` or ``EQUAL``. Tests prove this kernel equivalent
to both the raw transitive-closure check and the CPS-embedding comparison
on random posets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.posets.poset import Poset

Value = Hashable
ObjectValues = tuple[Value, ...]

#: AND-reduced codes: a row beats x, x beats a row, the two are identical
ROW_WINS, X_WINS, EQUAL = 1, 2, 3


class Encoder:
    """Dictionary encoding over fixed domains, shared by every profile
    built on them: global value ids and the code-row indices of an object.
    """

    def __init__(self, attrs: Sequence[str], domains: Mapping[str, Sequence[Value]]):
        self.attrs = tuple(attrs)
        #: per attribute, the domain in encoding order: value -> local id
        self.index = [{v: i for i, v in enumerate(domains[d])} for d in self.attrs]
        n = np.array([len(idx) for idx in self.index], dtype=np.intp)
        self.n = n  #: per-attribute stride n_d
        self.base = np.cumsum(n**2) - n**2  #: per-attribute table offset base_d
        self.col = np.cumsum(n) - n  #: per-attribute first global id col_d
        self._global = [{v: int(c) + i for v, i in idx.items()}
                        for c, idx in zip(self.col, self.index)]
        # Global id g = col_d + v indexes code_d[u, v] at base_d + u * n_d + v,
        # i.e. at _off[g] + x_d * _stride[g] for an object with global id x_d.
        attr = np.repeat(np.arange(len(n)), n)
        self._attr = attr
        self._stride = n[attr]
        local = np.arange(n.sum()) - self.col[attr]
        self._off = self.base[attr] - self.col[attr] * n[attr] + local
        self._x: np.ndarray | None = None
        self._idx: np.ndarray | None = None

    def encode(self, obj: ObjectValues) -> np.ndarray:
        """Object attribute values -> read-only ``intp`` vector of global
        ids. The encoder keeps the vector it returned last with its code-row
        indices, so every profile comparing that object reads them."""
        x = np.array([self._global[k][v] for k, v in enumerate(obj)], dtype=np.intp)
        x.flags.writeable = False
        self._x, self._idx = x, self.row_index(x)
        return x

    def row_index(self, x: np.ndarray) -> np.ndarray:
        """Table indices of the code rows of ``x`` (``... x K``), shape
        ``(..., Σ n_d)``."""
        if x is self._x:
            return self._idx
        return self._off + x[..., self._attr] * self._stride


class Profile:
    """Dominance comparator for one preference profile over fixed domains.

    Profiles built with the same ``encoder`` share its encoding; without
    one, the profile builds its own from ``attrs`` and ``domains``.
    """

    def __init__(
        self,
        attrs: Sequence[str],
        prefs: Mapping[str, Poset],
        domains: Mapping[str, Sequence[Value]],
        encoder: Encoder | None = None,
    ):
        self.encoder = encoder if encoder is not None else Encoder(attrs, domains)
        self.attrs = tuple(attrs)
        if self.attrs != self.encoder.attrs:
            raise ValueError(f"profile attributes {self.attrs} differ from the "
                             f"encoder's {self.encoder.attrs}")
        codes = []
        for d, idx in zip(self.attrs, self.encoder.index):
            geq = np.eye(len(idx), dtype=np.uint8)
            for (x, y) in prefs[d].pairs:
                geq[idx[x], idx[y]] = 1
            codes.append((geq.T | geq << 1).ravel())
        self._table = np.concatenate(codes)
        self._x: np.ndarray | None = None
        self._row: np.ndarray | None = None

    @property
    def n_attrs(self) -> int:
        return len(self.attrs)

    def encode(self, obj: ObjectValues) -> np.ndarray:
        """Object attribute values -> read-only ``intp`` vector of global ids."""
        return self.encoder.encode(obj)

    def compare(self, frontier: np.ndarray, x: np.ndarray) -> np.ndarray:
        """AND-reduced codes of encoded object ``x`` (``K``) against each row
        of ``frontier`` (``m x K`` global ids), ``(m,)``, or of each row of
        ``x`` (``c x K``), ``(c, m)``; the size is the pairs compared. A
        profile keeps its code row of the vector the encoder returned last."""
        enc = self.encoder
        if x.ndim == 2:
            idx = enc._off[frontier.T] + (x * enc.n)[:, :, None]
            return np.bitwise_and.reduce(self._table[idx], axis=1)
        if x is not self._x:
            self._row = self._table[enc.row_index(x)]
            self._x = x if x is enc._x else None
        return np.bitwise_and.reduce(self._row[frontier.T], axis=0)

    def dominates(self, a: ObjectValues, b: ObjectValues) -> bool:
        """Scalar ``a ≻ b`` (Def. 2) — convenience for tests and oracles."""
        return bool(self.compare(self.encode(b)[None, :], self.encode(a))[0] == X_WINS)


class ProfileStack:
    """Profiles on one encoder, their code tables stacked ``(H, table)``.

    Each profile's table becomes a row view of the stack, so no table is
    held twice. :meth:`compare` answers for several of the profiles in
    two gathers and one AND.
    """

    def __init__(self, profiles: Sequence[Profile]):
        self.encoder = profiles[0].encoder
        self.tables = np.empty((len(profiles), profiles[0]._table.size), dtype=np.uint8)
        for p, row in zip(profiles, self.tables):
            row[:] = p._table
            p._table = row

    def compare(self, which: np.ndarray, frontier: np.ndarray, x: np.ndarray) -> np.ndarray:
        """AND-reduced codes ``(len(which), m)``: row ``k`` is the code of
        profile ``which[k]`` comparing ``x`` (``K``), or ``x[k]`` when ``x``
        is ``(len(which), K)``, against ``frontier`` (``m x K``), as
        :meth:`Profile.compare` gives it."""
        # Each object's code row under its profile (Σ n_d codes), then the
        # frontier's columns of it: the only (len(which), K, m) array is
        # of codes, not of table indices.
        start = np.asarray(which, dtype=np.intp)[:, None] * self.tables.shape[1]
        code_rows = self.tables.ravel().take(start + self.encoder.row_index(x))
        return np.bitwise_and.reduce(code_rows[:, frontier.T], axis=1)


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
    mat = np.array([profile.encode(objects[o]) for o in ids], dtype=np.intp)
    mat = mat.reshape(len(ids), profile.n_attrs)
    return {o for o, x in zip(ids, mat) if ROW_WINS not in profile.compare(mat, x).tobytes()}


@dataclass
class ComparisonCounter:
    """Accumulates the paper's "work done" metric (objects compared)."""

    total: int = 0
    by_stage: dict[str, int] = field(default_factory=dict)

    def add(self, stage: str, n: int) -> None:
        self.total += n
        self.by_stage[stage] = self.by_stage.get(stage, 0) + n
