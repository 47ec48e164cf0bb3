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
``max(combinations(alive, 2))`` over the scalar measures of
:mod:`repro.core.similarity` returns.

Dense rows. Per attribute there is one column per ordered value pair
that appears in some user's relation, and every cluster id owns one row
(at most ``2n - 1``). A vector-measure row is the cluster's frequency
vector, built as :func:`~repro.core.similarity.tuple_frequencies` builds
it: member weights added in member order, then divided by the size. An
exact-measure row is the indicator of the common relation plus, for the
weighted measures, the weight of each pair's better value in that
relation. Classic stored-matrix HAC (Müllner, "Modern hierarchical,
agglomerative clustering algorithms", 2011): a merge scores the new row
against every live row in one numpy pass, writes the scores into a dense
similarity matrix ``S`` and keeps each row's maximum.

Exactness. ``sim_i`` and ``sim_j`` are integer counts and their ratio,
so their dense scores are the measure's bits. The other four measures sum
floats, and numpy's sums may differ from ``math.fsum`` in the last bits.
Every such score is built from non-negative terms by sums, one quotient
and the mean over attributes; with ``m`` columns over all attributes and
``|D|`` attributes there are at most ``K = 2m + |D| + 6`` rounding steps
on any path, so the dense score and the ``fsum`` score both lie
within a factor ``1 ± γ_K`` (``γ_K = K·u / (1 - K·u)``, ``u = 2⁻⁵³``) of
the real-number score (Higham, "Accuracy and Stability of Numerical
Algorithms", §3.1). An exact maximum therefore has a dense score of at
least ``((1 - γ_K) / (1 + γ_K))² ≥ 1 - 4.04·K·u`` times the dense
maximum; the floor ``1 - 8·K·u`` lies below that with room for its own
rounding. Every pair at or above that floor is re-scored with
``math.fsum`` over the same terms, and the first exact maximum is merged
with its exact ``sim``. A dense score of 0 has no positive term, so it is
exact.

The full merge sequence is recorded as a :class:`Dendrogram` (Def. 7);
``theta(h)`` returns the partition just before the first merge whose
similarity fell below the branch cut ``h``. ``theta(1)`` is all-singletons
unless some users have identical preferences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.similarity import mean_attr_similarity
from repro.posets.poset import Poset, common_relation

UserId = Hashable
UserPrefs = Mapping[str, Poset]

MEASURES = (
    "intersection",
    "jaccard",
    "weighted_intersection",
    "weighted_jaccard",
    "vector_jaccard",
    "weighted_vector_jaccard",
)


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


class _Rows:
    """Dense per-cluster rows over the ordered value pairs of every attribute.

    ``values[r]`` holds row ``r``: the frequency vector (vector measures)
    or the weight of each pair's better value, 0 outside the relation
    (exact measures). ``held[r]`` is 1.0 where row ``r``'s relation
    holds the pair (exact measures).
    """

    def __init__(self, attrs: Sequence[str], prefs: Sequence[UserPrefs], measure: str):
        self.vector = measure.endswith("vector_jaccard")
        self.weighted = measure.startswith("weighted")
        self.jaccard = measure.endswith("jaccard")
        cols = [sorted({pair for p in prefs for pair in p[d].pairs}, key=repr) for d in attrs]
        bounds = np.cumsum([0] + [len(c) for c in cols])
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        index = [{pair: k for k, pair in enumerate(c, start=int(a))} for c, a in zip(cols, bounds)]
        n, width = len(prefs), int(bounds[-1])
        self.attrs = tuple(attrs)
        self.values = np.zeros((2 * n - 1, width))
        self.held = np.zeros_like(self.values)
        for u, p in enumerate(prefs):
            for d, idx in zip(attrs, index):
                for pair in p[d].pairs:
                    self.held[u, idx[pair]] = 1.0
                    self.values[u, idx[pair]] = p[d].weight(pair[0]) if self.weighted else 1.0
        self._index = index
        # _attr[k, d] = 1.0 when column k belongs to attribute d; a product
        # with it sums each attribute's columns.
        self._attr = np.zeros((width, len(attrs)))
        self._attr[np.arange(width), np.repeat(np.arange(len(attrs)), np.diff(bounds))] = 1.0
        if self.vector:
            self._users = self.values[:n].copy()  # per-member weights
            self._sums = self.values.copy()  # member weights, added in member order
            self._size = np.ones(len(self.values))
        else:
            self._count = self.held @ self._attr  # relation size per attribute
            self._reps = [dict(p) for p in prefs] if self.weighted else None
        exact = not (self.vector or self.weighted)
        self.margin = 0.0 if exact else 8 * (2 * width + len(attrs) + 6) * 2.0**-53

    def add(self, new: int, i: int, j: int, members_j: Sequence[int]) -> None:
        """Build row ``new`` for the merge of clusters ``i`` and ``j``."""
        if self.vector:
            # Continue i's running sum with j's members one at a time, so
            # every column adds its terms in member order.
            stack = np.vstack((self._sums[i], self._users[members_j]))
            self._sums[new] = np.add.accumulate(stack, axis=0)[-1]
            self._size[new] = self._size[i] + len(members_j)
            self.values[new] = self._sums[new] / self._size[new]
            return
        self.held[new] = self.held[i] * self.held[j]
        self._count[new] = self.held[new] @ self._attr
        if self.weighted:
            rep = {d: common_relation((self._reps[i][d], self._reps[j][d])) for d in self.attrs}
            self._reps.append(rep)
            for d, idx in zip(self.attrs, self._index):
                for pair in rep[d].pairs:
                    self.values[new, idx[pair]] = rep[d].weight(pair[0])

    def dense(self, r: int, ks: np.ndarray) -> np.ndarray:
        """Row ``r``'s similarity to each row in ``ks``, numpy-summed."""
        if self.vector:
            vals, v = self.values[ks], self.values[r]
            num, den = np.minimum(vals, v) @ self._attr, np.maximum(vals, v) @ self._attr
        else:
            # Row r spread over one column per attribute, so that one
            # product sums every attribute.
            held, a = self.held[ks], self._attr * self.held[r, :, None]
            num = held @ a
            if self.weighted:
                wts, w = self.values[ks], self._attr * self.values[r, :, None]
                num = (wts @ a + held @ w) * 0.5
                den = (1.0 - held) @ w + wts @ (self._attr - a) + num
            else:
                den = self._count[ks] + self._count[r] - num
        per_attr = np.divide(num, den, out=np.ones_like(num), where=den > 0) if self.jaccard else num
        total = np.zeros(len(ks))
        for d in range(per_attr.shape[1]):
            total += per_attr[:, d]
        return total / max(per_attr.shape[1], 1)

    def exact(self, a: int, b: int) -> float:
        """The similarity of rows ``a`` and ``b``, each sum a ``math.fsum``."""
        return mean_attr_similarity(self._exact_attr(a, b, sl) for sl in self.slices)

    def _exact_attr(self, a: int, b: int, sl: slice) -> float:
        x, y = self.values[a, sl], self.values[b, sl]
        if self.vector:
            den = math.fsum(np.maximum(x, y).tolist())
            return math.fsum(np.minimum(x, y).tolist()) / den if den else 1.0
        in_a, in_b = self.held[a, sl] > 0, self.held[b, sl] > 0
        inter = math.fsum(((x + y) / 2.0)[in_a & in_b].tolist())
        if not self.jaccard:
            return inter
        den = math.fsum(x[in_a & ~in_b].tolist()) + math.fsum(y[in_b & ~in_a].tolist()) + inter
        return inter / den if den else 1.0


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
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    users = tuple(sorted(prefs_by_user, key=repr))
    n = len(users)
    if n < 2:
        return Dendrogram(users=users, merges=())
    rows = _Rows(tuple(attrs), [prefs_by_user[u] for u in users], measure)
    clusters: list[tuple[UserId, ...]] = [(u,) for u in users]
    members: list[list[int]] = [[u] for u in range(n)]
    # S[a, b] for live a < b; -inf elsewhere. best[a] = max of row a.
    S = np.full((2 * n - 1, 2 * n - 1), -np.inf)
    for r in range(1, n):
        S[:r, r] = rows.dense(r, np.arange(r))
    best = S.max(axis=1)
    fsum_sims: dict[tuple[int, int], float] = {}
    alive = list(range(n))
    merges: list[Merge] = []
    while len(alive) > 1:
        top = float(best.max())
        floor = top - top * rows.margin
        cands = ((a, b) for a in np.flatnonzero(best >= floor) for b in np.flatnonzero(S[a] >= floor))
        if rows.margin and top > 0:
            cands = list(cands)
            for p in cands:
                if p not in fsum_sims:
                    fsum_sims[p] = rows.exact(*p)
            i, j = max(cands, key=fsum_sims.__getitem__)
            sim = fsum_sims[i, j]
        else:
            (i, j), sim = next(cands), top
        i, j = int(i), int(j)
        merges.append(Merge(clusters[i], clusters[j], sim))
        alive.remove(i)
        alive.remove(j)
        ks = np.array(alive, dtype=np.intp)
        stale = ks[(S[ks, i] == best[ks]) | (S[ks, j] == best[ks])]
        S[[i, j], :] = -np.inf
        S[:, [i, j]] = -np.inf
        best[[i, j]] = -np.inf
        best[stale] = S[stale].max(axis=1)
        new = len(clusters)
        clusters.append(clusters[i] + clusters[j])
        members.append(members[i] + members[j])
        rows.add(new, i, j, members[j])
        if ks.size:
            S[ks, new] = rows.dense(new, ks)
            best[ks] = np.maximum(best[ks], S[ks, new])
        alive.append(new)
    return Dendrogram(users=users, merges=tuple(merges))
