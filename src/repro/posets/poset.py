"""Strict partial orders over finite domains (Def. 1 of the paper).

A preference relation ``≻_c^d`` is a set of ordered pairs ``(better,
worse)`` over ``dom(d)`` that is irreflexive and transitive (hence
asymmetric). :class:`Poset` stores the *transitive closure* of the input
pairs and validates the strict-partial-order axioms on construction.

The class also provides the derived notions the paper needs:

* maximal values ``S_U^d`` (Def. 6),
* value weights ``1 / (min_{s ∈ S} D(s, v) + 1)`` where ``D`` is the
  shortest-path distance on the *Hasse diagram* (transitive reduction) —
  this is the distance notion under which the paper's Example 8 numbers
  (weights 1, 1/2, 1/3) come out exactly,
* Hasse diagram edges.

:func:`common_relation` intersects any number of relations (the common
preference relation, Def. 5); by Theorem 1 the result is again a strict
partial order.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Hashable, Iterable

Value = Hashable
Pair = tuple[Value, Value]


def transitive_closure(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Transitive closure of a binary relation, as a frozenset of pairs.

    O(V * E) BFS from every source value; fine for the attribute-domain
    sizes this paper works with (tens to a few hundred values).
    """
    succ: dict[Value, set[Value]] = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    closed: set[Pair] = set()
    for x in succ:
        seen: set[Value] = set()
        dq = deque(succ[x])
        while dq:
            y = dq.popleft()
            if y in seen:
                continue
            seen.add(y)
            closed.add((x, y))
            dq.extend(succ.get(y, ()))
    return frozenset(closed)


def is_strict_partial_order(pairs: Iterable[Pair]) -> bool:
    """True iff the *transitive closure* of ``pairs`` is irreflexive.

    Irreflexivity of the closure is equivalent to acyclicity of the raw
    relation, and together with transitivity it implies asymmetry — the
    three axioms of Def. 1.
    """
    return all(x != y for x, y in transitive_closure(pairs))


class Poset:
    """An immutable strict partial order over a finite domain.

    ``domain`` defaults to the values mentioned in ``pairs``; pass it
    explicitly when the attribute domain has values incomparable to
    everything (they simply never appear in any pair).
    """

    __slots__ = ("pairs", "domain", "__dict__")

    def __init__(self, pairs: Iterable[Pair] = (), domain: Iterable[Value] | None = None):
        closed = transitive_closure(pairs)
        for x, y in closed:
            if x == y:
                raise ValueError(f"not a strict partial order: cycle through {x!r}")
        self._bind(closed, domain)

    @classmethod
    def _closed(cls, pairs: frozenset[Pair], domain: Iterable[Value] | None) -> Poset:
        """A poset of ``pairs`` that are already a strict partial order
        (irreflexive and transitive), which is not closed or checked again."""
        poset = cls.__new__(cls)
        poset._bind(pairs, domain)
        return poset

    def _bind(self, closed: frozenset[Pair], domain: Iterable[Value] | None) -> None:
        self.pairs: frozenset[Pair] = closed
        mentioned = {v for p in closed for v in p}
        self.domain: frozenset[Value] = frozenset(domain) if domain is not None else frozenset(mentioned)
        if not mentioned <= self.domain:
            raise ValueError("pairs mention values outside the declared domain")

    # -- relation queries ------------------------------------------------
    def prefers(self, x: Value, y: Value) -> bool:
        """True iff ``x ≻ y`` (x strictly preferred to y)."""
        return (x, y) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.pairs == other.pairs and self.domain == other.domain

    def __hash__(self) -> int:
        return hash((self.pairs, self.domain))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Poset({sorted(map(str, self.pairs))})"

    # -- derived structure ----------------------------------------------
    @cached_property
    def hasse_edges(self) -> frozenset[Pair]:
        """Transitive reduction: edges (x, y) with no z s.t. x ≻ z ≻ y."""
        return frozenset(
            (x, y)
            for x, y in self.pairs
            if not any((x, z) in self.pairs and (z, y) in self.pairs for z in self.domain)
        )

    @cached_property
    def maximal_values(self) -> frozenset[Value]:
        """Def. 6: values with no strictly better value in the domain."""
        worse = {y for _, y in self.pairs}
        return frozenset(self.domain - worse)

    @cached_property
    def _hasse_distance_from_maximal(self) -> dict[Value, int]:
        """min over maximal values s of shortest Hasse-path distance s→v."""
        succ: dict[Value, list[Value]] = {}
        for x, y in self.hasse_edges:
            succ.setdefault(x, []).append(y)
        dist: dict[Value, int] = {s: 0 for s in self.maximal_values}
        dq = deque(self.maximal_values)
        while dq:
            u = dq.popleft()
            for v in succ.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        return dist

    def weight(self, v: Value) -> float:
        """Eq. 4's per-value weight: 1 / (min-distance-from-maximal + 1)."""
        d = self._hasse_distance_from_maximal.get(v)
        if d is None:
            raise KeyError(f"{v!r} not in poset domain")
        return 1.0 / (d + 1)


def common_relation(posets: Iterable[Poset]) -> Poset:
    """``≻_U^d = ∩_{c ∈ U} ≻_c^d`` (Def. 5) for any number of users."""
    posets = list(posets)
    if not posets:
        raise ValueError("common_relation of an empty user set is undefined")
    pairs = frozenset.intersection(*(p.pairs for p in posets))
    domain = frozenset().union(*(p.domain for p in posets))
    # An intersection of strict partial orders is one (Thm. 1): no closure.
    return Poset._closed(pairs, domain)
