"""Hierarchical agglomerative clustering of users' partial orders (Sec. V).

Following the paper: at each iteration the two most similar clusters are
merged; after a merge the merged cluster's representation (common
preference relations for the exact measures, mean frequency vectors for
the Sec. VI-C measures) is recomputed and its similarity to every other
cluster re-evaluated — i.e. the inter-cluster similarity is measured
between cluster representatives, not via linkage formulas.

Cluster ids are integers: the users in ``repr`` order, then each merged
cluster in creation order. Ties go to the pair that comes first in
row-major order of the live ids (ascending), which is what
``max(combinations(alive, 2))`` returns.

The full merge sequence is recorded as a :class:`Dendrogram` (Def. 7);
``theta(h)`` returns the partition just before the first merge whose
similarity fell below the branch cut ``h``. ``theta(1)`` is all-singletons
unless some users have identical preferences.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Mapping, Sequence

from repro.core.common import cluster_common_relation
from repro.core.similarity import (
    mean_attr_similarity,
    sim_i,
    sim_j,
    sim_wi,
    sim_wj,
    tuple_frequencies,
    vec_jaccard,
)
from repro.posets.poset import Poset

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


def cluster_users(
    attrs: Sequence[str],
    prefs_by_user: Mapping[UserId, UserPrefs],
    *,
    measure: str = "vector_jaccard",
) -> Dendrogram:
    """Run HAC until one cluster is left and return the dendrogram.

    ``measure`` ∈ {"intersection", "jaccard", "weighted_intersection",
    "weighted_jaccard", "vector_jaccard", "weighted_vector_jaccard"}.
    """
    attrs = tuple(attrs)
    if measure in EXACT_MEASURES:
        attr_sim = EXACT_MEASURES[measure]

        def rep(members):
            return cluster_common_relation(members, prefs_by_user, attrs)

    elif measure in ("vector_jaccard", "weighted_vector_jaccard"):
        attr_sim = vec_jaccard
        weighted = measure == "weighted_vector_jaccard"

        def rep(members):
            return {
                d: tuple_frequencies(
                    members, {c: prefs_by_user[c][d] for c in members}, weighted=weighted
                )
                for d in attrs
            }

    else:
        raise ValueError(f"unknown measure {measure!r}")

    users = tuple(sorted(prefs_by_user, key=repr))
    clusters: list[tuple[UserId, ...]] = [(u,) for u in users]
    reps = [rep(c) for c in clusters]

    def sim(i: int, j: int) -> float:
        return mean_attr_similarity(attr_sim(reps[i][d], reps[j][d]) for d in attrs)

    sims = {(i, j): sim(i, j) for i, j in combinations(range(len(clusters)), 2)}
    alive = list(range(len(clusters)))
    merges: list[Merge] = []
    while len(alive) > 1:
        i, j = max(combinations(alive, 2), key=sims.__getitem__)
        merges.append(Merge(clusters[i], clusters[j], sims[i, j]))
        alive.remove(i)
        alive.remove(j)
        new = len(clusters)
        clusters.append(clusters[i] + clusters[j])
        reps.append(rep(clusters[new]))
        sims.update(((k, new), sim(new, k)) for k in alive)
        alive.append(new)
    return Dendrogram(users=users, merges=tuple(merges))
