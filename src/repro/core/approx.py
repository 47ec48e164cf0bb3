"""Algorithm 3 — ``GetApproxPreferenceTuples`` (Sec. VI).

Greedy construction of an *approximate common preference relation*
``≻_aU`` for a cluster ``U`` on one attribute:

1. compute the frequency (fraction of members) of every ordered value
   pair; sort pairs by frequency, descending (deterministic tie-break);
2. tuples with frequency 1 (true common tuples) are always included, so
   ``≻_aU ⊇ ≻_U`` (Lemma 2, property 1);
3. remaining tuples are taken greedily while ``|≻_aU| < threshold1`` and
   ``frequency > threshold2``; a tuple is admitted only if the union stays
   a strict partial order, and admission closes the relation transitively.
"""
from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.core.similarity import tuple_frequencies
from repro.posets.poset import Pair, Poset, is_strict_partial_order, transitive_closure

UserId = Hashable


def get_approx_preference_tuples(
    members: Sequence[UserId],
    posets_by_user: Mapping[UserId, Poset],
    *,
    threshold1: int | None = None,
    threshold2: float = 0.6,
    tie_order: Sequence[Pair] | None = None,
) -> Poset:
    """Approximate common preference relation of ``members`` (Def. 8).

    ``threshold1`` caps the relation size (``None`` = unbounded);
    ``threshold2`` is the frequency floor — a tuple must be shared by a
    *strictly greater* fraction of members to be considered. The paper
    leaves the order among equal-frequency tuples unspecified; we default
    to a deterministic ``repr`` tie-break, overridable via ``tie_order``
    (pairs earlier in the sequence are tried first — used to pin
    Example 11's exact trace in tests).
    """
    if not members:
        raise ValueError("empty cluster")
    domain = frozenset().union(*(posets_by_user[c].domain for c in members))
    freq = tuple_frequencies(members, posets_by_user)
    hint = {p: i for i, p in enumerate(tie_order)} if tie_order is not None else {}
    ordered = sorted(
        freq.items(), key=lambda kv: (-kv[1], hint.get(kv[0], len(hint)), repr(kv[0]))
    )

    approx: set[Pair] = {p for p, f in freq.items() if f >= 1.0 - 1e-12}
    for pair, f in ordered:
        if pair in approx:
            continue  # common tuple, already in (lines 5-6)
        if threshold1 is not None and len(approx) >= threshold1:
            break
        if f <= threshold2 + 1e-12:
            break
        candidate = approx | {pair}
        if is_strict_partial_order(candidate):
            approx = set(transitive_closure(candidate))
    return Poset(approx, domain=domain)


def approx_cluster_relation(
    members: Sequence[UserId],
    prefs_by_user: Mapping[UserId, Mapping[str, Poset]],
    attrs: Sequence[str],
    *,
    threshold2: float = 0.6,
) -> dict[str, Poset]:
    """``≻_aU`` for every attribute — the virtual user ``U_a``, with no
    size cap (``threshold1`` unset)."""
    return {
        d: get_approx_preference_tuples(
            members, {c: prefs_by_user[c][d] for c in members}, threshold2=threshold2
        )
        for d in attrs
    }
