"""Correctness oracles, vectorised straight from the paper's definitions.

They share no code with ``repro.core``: preferences enter only as the
``pairs`` (better, worse) of each user's strict partial orders, and
dominance (Def. 2) is recomputed here with numpy over the distinct value
tuples of the stream.

Both oracles return, for each arrival step, the set of (user, object)
pairs the engines must emit during that step:

* :func:`append_emissions` — Def. 3: object ``o_t`` goes to user ``c``
  iff no earlier object dominates it under ``≻_c``.
* :func:`window_emissions` — Def. 9 with the engines' step order: at
  arrival ``t`` the object ``o_{t-W}`` expires first, then ``o_t`` is
  inserted. An object is emitted to ``c`` the first time it is Pareto
  among the live objects: at its arrival if no dominator lies in the
  window, otherwise at the step its last earlier dominator expires,
  provided no later dominator has arrived before that step.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

Emissions = list[set[tuple[str, str]]]


def _encode(attrs, domains, stream) -> tuple[np.ndarray, np.ndarray]:
    index = [{v: i for i, v in enumerate(domains[d])} for d in attrs]
    x = np.array(
        [[index[k][v] for k, v in enumerate(vals)] for _, vals in stream], dtype=np.int64
    ).reshape(len(stream), len(attrs))
    uniq, inv = np.unique(x, axis=0, return_inverse=True)
    return uniq, inv.reshape(-1)


def _strict_dominance(attrs, domains, user_prefs, uniq: np.ndarray) -> np.ndarray:
    """``D[p, q]``: distinct tuple ``p`` strictly dominates tuple ``q`` (Def. 2)."""
    dom = np.ones((len(uniq), len(uniq)), dtype=bool)
    for k, d in enumerate(attrs):
        index = {v: i for i, v in enumerate(domains[d])}
        geq = np.eye(len(index), dtype=bool)
        pairs = [(index[a], index[b]) for a, b in user_prefs[d].pairs]
        if pairs:
            better, worse = np.array(pairs).T
            geq[better, worse] = True
        col = uniq[:, k]
        dom &= geq[col[:, None], col[None, :]]
    np.fill_diagonal(dom, False)  # tuples are distinct, so only p == q ties
    return dom


def append_emissions(
    attrs: Sequence[str],
    domains: Mapping[str, Sequence[str]],
    prefs_by_user: Mapping,
    stream,
) -> Emissions:
    n = len(stream)
    uniq, inv = _encode(attrs, domains, stream)
    first = np.full(len(uniq), n)
    np.minimum.at(first, inv, np.arange(n))
    out: Emissions = [set() for _ in range(n)]
    for user, prefs in prefs_by_user.items():
        dom = _strict_dominance(attrs, domains, prefs, uniq)
        earliest_dominator = np.where(dom, first[:, None], n).min(axis=0)
        for t in np.flatnonzero(earliest_dominator[inv] > np.arange(n)):
            out[t].add((user, stream[t][0]))
    return out


def _nearest_dominator(dom: np.ndarray, inv: np.ndarray, others: np.ndarray, valid: np.ndarray):
    """Offset (1-based) of the nearest dominator along ``others``; 0 if none."""
    hit = dom[inv[others], inv[:, None]] & valid
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)


def window_emissions(
    attrs: Sequence[str],
    domains: Mapping[str, Sequence[str]],
    prefs_by_user: Mapping,
    stream,
    window: int,
) -> Emissions:
    if window < 1:
        raise ValueError("window must be at least 1")
    n = len(stream)
    out: Emissions = [set() for _ in range(n)]
    pos = np.arange(n)
    if window == 1:  # only the arriving object is ever live
        for t in pos:
            out[t].update((user, stream[t][0]) for user in prefs_by_user)
        return out
    uniq, inv = _encode(attrs, domains, stream)
    offsets = np.arange(1, window)
    before = pos[:, None] - offsets[None, :]
    after = pos[:, None] + offsets[None, :]
    before_ok, after_ok = before >= 0, after < n
    before, after = before.clip(0, n - 1), after.clip(0, n - 1)
    for user, prefs in prefs_by_user.items():
        dom = _strict_dominance(attrs, domains, prefs, uniq)
        k_before = _nearest_dominator(dom, inv, before, before_ok)
        k_after = _nearest_dominator(dom, inv, after, after_ok)
        # the last earlier dominator o_{s-k} expires at step s - k + W
        step = np.where(k_before == 0, pos, pos - k_before + window)
        later = np.where(k_after == 0, n, pos + k_after)
        for s in np.flatnonzero((step < n) & (step <= later)):
            out[step[s]].add((user, stream[s][0]))
    return out


def pairs(emissions: Emissions) -> set[tuple[str, str]]:
    return set().union(*emissions) if emissions else set()
