"""Hierarchical agglomerative clustering of users' partial orders (Sec. V).

Following the paper: at each iteration the two most similar clusters are
merged; after a merge the merged cluster's representation (common
preference relations for the exact measures, mean frequency vectors for
the Sec. VI-C measures) is recomputed and its similarity to every other
cluster re-evaluated — i.e. the inter-cluster similarity is measured
between cluster representatives, not via linkage formulas.

The full merge sequence is recorded as a :class:`Dendrogram` (Def. 7);
``theta(h)`` returns the partition just before the first merge whose
similarity fell below the branch cut ``h``. ``theta(1)`` is all-singletons
unless some users have identical preferences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.similarity import (
    mean_attr_similarity,
    sim_i,
    sim_j,
    sim_wi,
    sim_wj,
    tuple_frequencies,
    vec_jaccard,
)
from repro.posets.poset import Poset, common_relation

UserId = Hashable
UserPrefs = Mapping[str, Poset]

EXACT_MEASURES: dict[str, Callable[[Poset, Poset], float]] = {
    "intersection": sim_i,
    "jaccard": sim_j,
    "weighted_intersection": sim_wi,
    "weighted_jaccard": sim_wj,
}


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: ``left`` and ``right`` fused at ``sim``."""

    left: tuple[UserId, ...]
    right: tuple[UserId, ...]
    sim: float


@dataclass
class Dendrogram:
    """Def. 7: users plus the ordered merge sequence; ``theta(h)`` cuts it."""

    users: tuple[UserId, ...]
    merges: tuple[Merge, ...]

    def theta(self, h: float) -> list[tuple[UserId, ...]]:
        """Partition of the users after applying every merge with sim ≥ h."""
        clusters: list[tuple[UserId, ...]] = [(u,) for u in self.users]
        for m in self.merges:
            if m.sim < h:
                break
            clusters = [c for c in clusters if c != m.left and c != m.right]
            clusters.append(tuple(m.left) + tuple(m.right))
        return sorted(clusters)


class _ExactRep:
    """Cluster representative for Sec. V measures: common relations."""

    def __init__(self, attrs: Sequence[str], prefs_by_user: Mapping[UserId, UserPrefs]):
        self.attrs = tuple(attrs)
        self.user_prefs = prefs_by_user

    def make(self, members: tuple[UserId, ...]) -> dict[str, Poset]:
        return {d: common_relation(self.user_prefs[c][d] for c in members) for d in self.attrs}

    def sim(self, r1: dict[str, Poset], r2: dict[str, Poset], measure: str) -> float:
        f = EXACT_MEASURES[measure]
        return mean_attr_similarity(f(r1[d], r2[d]) for d in self.attrs)


class _VectorRep:
    """Cluster representative for Sec. VI-C measures: frequency vectors."""

    def __init__(
        self,
        attrs: Sequence[str],
        prefs_by_user: Mapping[UserId, UserPrefs],
        weighted: bool,
    ):
        self.attrs = tuple(attrs)
        self.user_prefs = prefs_by_user
        self.weighted = weighted

    def make(self, members: tuple[UserId, ...]) -> dict[str, dict]:
        return {
            d: tuple_frequencies(
                members, {c: self.user_prefs[c][d] for c in members}, weighted=self.weighted
            )
            for d in self.attrs
        }

    def sim(self, r1, r2, measure: str) -> float:
        return mean_attr_similarity(vec_jaccard(r1[d], r2[d]) for d in self.attrs)


def cluster_users(
    attrs: Sequence[str],
    prefs_by_user: Mapping[UserId, UserPrefs],
    *,
    measure: str = "vector_jaccard",
) -> Dendrogram:
    """Run HAC until one cluster is left and return the dendrogram.

    ``measure`` ∈ {"intersection", "jaccard", "weighted_intersection",
    "weighted_jaccard", "vector_jaccard", "weighted_vector_jaccard"}.
    Deterministic: ties broken by cluster member order.
    """
    users = tuple(sorted(prefs_by_user, key=repr))
    if measure in EXACT_MEASURES:
        rep: _ExactRep | _VectorRep = _ExactRep(attrs, prefs_by_user)
    elif measure == "vector_jaccard":
        rep = _VectorRep(attrs, prefs_by_user, weighted=False)
    elif measure == "weighted_vector_jaccard":
        rep = _VectorRep(attrs, prefs_by_user, weighted=True)
    else:
        raise ValueError(f"unknown measure {measure!r}")

    clusters: list[tuple[UserId, ...]] = [(u,) for u in users]
    reps = {c: rep.make(c) for c in clusters}
    sims: dict[tuple[int, int], float] = {}
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            sims[(i, j)] = rep.sim(reps[clusters[i]], reps[clusters[j]], measure)

    alive = list(range(len(clusters)))
    id2cluster = {i: clusters[i] for i in alive}
    merges: list[Merge] = []
    next_id = len(clusters)
    while len(alive) > 1:
        best = None
        for ii, i in enumerate(alive):
            for j in alive[ii + 1 :]:
                s = sims[(min(i, j), max(i, j))]
                if best is None or s > best[0]:
                    best = (s, i, j)
        s, i, j = best
        left, right = id2cluster[i], id2cluster[j]
        merged = tuple(left) + tuple(right)
        merges.append(Merge(left, right, s))
        alive = [k for k in alive if k not in (i, j)]
        mid = next_id
        next_id += 1
        id2cluster[mid] = merged
        reps[merged] = rep.make(merged)
        for k in alive:
            other = id2cluster[k]
            sims[(min(mid, k), max(mid, k))] = rep.sim(reps[merged], reps[other], measure)
        alive.append(mid)
    return Dendrogram(users=users, merges=tuple(merges))
