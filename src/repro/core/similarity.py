"""Similarity measures for clustering users by partial orders.

Section V (exact, computed on the clusters' *common* preference
relations):

* Eq. 2 ``sim_i``  — intersection size,
* Eq. 3 ``sim_j``  — Jaccard,
* Eq. 4 ``sim_wi`` — weighted intersection size (weights are
  ``1/(min-Hasse-distance-from-a-maximal-value + 1)`` of the *better*
  value of each common tuple, averaged between the two clusters),
* Eq. 5 ``sim_wj`` — weighted Jaccard.

Section VI-C (approximate, computed on per-cluster *frequency vectors*
over all ordered value pairs — the multiset Jaccard of [5]):

* Eq. 6 ``vec_jaccard`` (and its weighted variant): dimension ``(x, y)``
  of a cluster's vector holds the fraction of members whose relation
  contains ``(x, y)`` — weighted by each member's weight of ``x`` in the
  weighted variant.

Cluster-level similarity (Eq. 1) sums per-attribute similarities; the
experiment harness divides by ``|D|`` so Jaccard-family similarities stay
in [0, 1] and the paper's branch cuts ``h ∈ (0, 1]`` apply directly.

HAC (:mod:`repro.core.hac`) evaluates these measures over dense rows and
re-scores its near-maxima with the same ``math.fsum`` sums; its tests
check its merges against these scalar functions.
"""
from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

from repro.posets.poset import Pair, Poset

UserId = Hashable


def sim_i(p1: Poset, p2: Poset) -> float:
    """Eq. 2: number of shared preference tuples."""
    return float(len(p1.pairs & p2.pairs))


def sim_j(p1: Poset, p2: Poset) -> float:
    """Eq. 3: intersection over union (1.0 for two empty relations)."""
    union = len(p1.pairs | p2.pairs)
    if union == 0:
        return 1.0
    return len(p1.pairs & p2.pairs) / union


def sim_wi(p1: Poset, p2: Poset) -> float:
    """Eq. 4: for each common tuple, the mean of the better value's
    weights in the two relations. Summed with ``math.fsum``, as in
    :func:`vec_jaccard`, so the result does not depend on the hash seed."""
    return math.fsum(
        (p1.weight(v) + p2.weight(v)) / 2.0 for (v, _) in p1.pairs & p2.pairs
    )


def sim_wj(p1: Poset, p2: Poset) -> float:
    """Eq. 5: weighted intersection over a weighted union.

    The denominator weighs tuples exclusive to each relation by that
    relation's own weight of the better value, plus the shared mass.
    """
    inter = sim_wi(p1, p2)
    only1 = math.fsum(p1.weight(v) for (v, _) in p1.pairs - p2.pairs)
    only2 = math.fsum(p2.weight(v) for (v, _) in p2.pairs - p1.pairs)
    denom = only1 + only2 + inter
    if denom == 0:
        return 1.0
    return inter / denom


# ---------------------------------------------------------------------------
# Section VI-C: frequency-vector similarities for the approximate pipeline.
# ---------------------------------------------------------------------------

def tuple_frequencies(
    members: Sequence[UserId],
    posets_by_user: Mapping[UserId, Poset],
    *,
    weighted: bool = False,
) -> dict[Pair, float]:
    """A cluster's frequency vector as a sparse dict over ordered pairs.

    Unweighted: fraction of members containing the tuple. Weighted: each
    containing member contributes its own weight of the better value.
    """
    acc: dict[Pair, float] = {}
    for c in members:
        p = posets_by_user[c]
        for pair in p.pairs:
            w = p.weight(pair[0]) if weighted else 1.0
            acc[pair] = acc.get(pair, 0.0) + w
    n = len(members)
    return {k: v / n for k, v in acc.items()}


def vec_jaccard(v1: Mapping[Pair, float], v2: Mapping[Pair, float]) -> float:
    """Eq. 6: multiset Jaccard of two non-negative frequency vectors.

    ``math.fsum`` rounds each sum correctly, so the result does not depend
    on the set's iteration order (and with it on the string hash seed).
    """
    keys = set(v1) | set(v2)
    if not keys:
        return 1.0
    num = math.fsum(min(v1.get(k, 0.0), v2.get(k, 0.0)) for k in keys)
    den = math.fsum(max(v1.get(k, 0.0), v2.get(k, 0.0)) for k in keys)
    if den == 0:
        return 1.0
    return num / den


def mean_attr_similarity(
    sims: Iterable[float],
) -> float:
    """Eq. 1 normalized to [0,1]: mean of per-attribute similarities."""
    sims = list(sims)
    return sum(sims) / len(sims) if sims else 0.0
