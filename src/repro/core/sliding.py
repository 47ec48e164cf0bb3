"""Algorithms 1-2 and 4-5 — ``Baseline`` / ``FilterThenVerify``, append-only
or over a count-based sliding window.

Both engines take ``window``. With ``None`` they run the append-only
algorithms (Alg. 1 ``Baseline``, Alg. 2 ``FilterThenVerify``); with ``W``
they run ``BaselineSW`` / ``FilterThenVerifySW`` (Algs. 4-5), which are
the same arrival step plus expiry.

FilterThenVerify keeps, per cluster ``U``, a frontier ``P_U`` under the
cluster relation (common relation ``≻_U`` for the exact variant,
approximate relation ``≻_aU`` for FilterThenVerifyApprox). It acts as a
sieve:

* objects dominated w.r.t. ``≻_U`` are true negatives for every member
  (Thm. 2 / Thm. 3) and are dropped without any per-user work;
* objects the new arrival dominates w.r.t. ``≻_U`` are evicted from
  ``P_U`` *and* from every member frontier containing them (case I of
  ``updateParetoFrontierU``) — one cluster-level comparison replaces up to
  ``|U|`` per-user comparisons;
* survivors are verified per member with the member's own preferences
  (Alg. 1's ``updateParetoFrontier``).

Sliding window of the ``W`` most recent objects: when object ``o_in``
with timestamp ``in`` arrives, the object with timestamp ``in - W``
expires first, then ``o_in`` is processed (Sec. VII).

Windowed engines keep *Pareto frontier buffers* (Def. 10): the recent
objects not dominated by any *later* object. By Thm. 5 an object
dominated by a later arrival can never re-enter any frontier, so buffers
shrink aggressively; BaselineSW keeps one buffer per user,
FilterThenVerifySW a single buffer per cluster (Thm. 6).

Frontiers and buffers store each object under its key ``(step, id)``, so
a replayed id is a new object; emission and the ``*_of`` accessors read
the id out of the key. ``o_out`` is the object of step ``t - W``. Buffer
rows are in arrival order and every older object has already expired, so
``o_out`` is either the first row of a buffer or absent from it. Absent
from ``PB_U`` means absent from ``P_U`` and every ``P_c`` (``P_c ⊆ P_U ⊆
PB_U``, Thm. 6; per user, ``P_c ⊆ PB_c``), and expiry skips that cluster
or user. Otherwise its encoding ``x_out`` is read from the buffer row, and
the buffer drops it only after the mend, whose buffer scan counts that row.

Expiry handling in FilterThenVerifySW extends the paper's pseudocode with
a per-member mend pass over ``P_U`` (members whose ``P_c`` contained
``o_out`` may owe promotions for objects that were dominated by ``o_out``
only under their own preferences, not under ``≻_U``) — without it ``P_c``
drifts from the Def. 9 frontier; see DESIGN.md §4.

Both mends run in a fixed number of numpy calls, not one per candidate,
and count what the paper's one-candidate-at-a-time loop counts. The
buffer mend (``_Engine._mend``, shared by both engines) compares the
buffer with ``o_out`` once, then its candidates with the frontier and
with each other, and promotes a candidate when neither dominates it; its
count is a cumulative sum over the candidates. The member mend compares
``o_out`` with ``P_U`` under every member that held it in one stacked
call, and verifies every (member, candidate) pair of the cluster in a
second, through the cluster's :class:`ProfileStack`, whose rows are the
members' code tables.

Dissemination accounting: ``C_o`` grows both at arrival time and when a
mend promotes an object into some ``P_c`` mid-lifetime (the paper's
``mendParetoFrontierSW`` does ``C_o ← C_o ∪ {c}``). ``insert`` returns
the arrival's target users; ``disseminated`` holds the (user, object)
pairs the latest ``insert`` emitted: those targets plus the mend
promotions of that step. It is emptied in place at the start of every
``insert``, so a reference to it stays valid.

Pickling an engine keeps its state only: the arrival count, the
comparison counter, the last step's pairs, and every object that some
frontier or buffer holds, once, as its id, its arrival step and one
``int32`` row of local value ids (each attribute's ids count from 0,
whatever global ids the shared encoder gives them in memory). Each
frontier and buffer is an array of indices into that table, in row order.
Profiles, clusters and the encoder are configuration, rebuilt from the
engine's inputs, and are never pickled. ``pickle.loads`` gives an engine
whose ``t``, ``counter`` and ``disseminated`` can be read as they are;
:meth:`_Engine.attach` gives it the profiles of a fresh engine built from
the same configuration, which a digest of that configuration checks.
"""
from __future__ import annotations

import hashlib
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.common import Cluster, UserPrefs
from repro.core.dominance import (
    ROW_WINS, X_WINS, ComparisonCounter, Encoder, ObjectValues, Profile, ProfileStack)
from repro.core.frontier import Frontier

UserId = Hashable
ObjectId = Hashable
Key = tuple[int, ObjectId]  #: a stored object: its arrival step and its id


class _Buffer(Frontier):
    """Pareto frontier buffer (Def. 10).

    Rows are appended on arrival and never reordered, so index order is
    arrival order.
    """

    def refresh(self, oid: Key, x: np.ndarray) -> int:
        """``refreshParetoBufferSW``: drop members the newcomer dominates
        (they precede it, so by Thm. 5 they are done), then append it.
        Returns the number of comparisons performed."""
        code = self.profile.compare(self.matrix(), x)
        if X_WINS in code.tobytes():
            self._evict(code)
        self.add_unchecked(oid, x)
        return code.size


def _pack(stores: list[Frontier], col: np.ndarray | None) -> tuple:
    """The objects ``stores`` hold, each once and in step order: ``(ids,
    steps, rows, index, lengths)``, where store ``k`` is
    ``index[sum(lengths[:k]):][:lengths[k]]`` into ``ids``/``steps``/``rows``.
    Each step is one object, so the step alone names it. ``rows`` holds
    local ``int32`` value ids (global id minus the attribute's ``col``);
    ``steps``, ``index`` and ``lengths`` take the narrowest unsigned dtype
    that fits."""
    keys = [key for fr in stores for key in fr.ids]
    if stores:
        rows = (np.concatenate([fr._rows for fr in stores], axis=1) - col[:, None]).T
        rows = rows.astype(np.int32, order="C")
    else:
        rows = np.zeros((0, 0), np.int32)
    steps, first, index = np.unique(np.array([step for step, _ in keys], dtype=np.int64),
                                    return_index=True, return_inverse=True)
    lengths = np.array([len(fr) for fr in stores])
    return (
        [keys[i][1] for i in first.tolist()],
        steps.astype(np.min_scalar_type(steps.max(initial=0))),
        rows[first],
        index.astype(np.min_scalar_type(max(len(first) - 1, 0))),
        lengths.astype(np.min_scalar_type(lengths.max(initial=0))),
    )


class _Engine:
    """Arrival order, expiry, emission and state handling shared by both
    engines."""

    #: the attributes holding frontier and buffer dicts, in pickled order
    _STORES: tuple[str, ...] = ()

    def __init__(self, frontiers: Mapping[Hashable, Frontier], window: int | None):
        self.window = window
        # All profiles share one encoder: encode each object once, through
        # the first profile, and pass the read-only vector to every profile,
        # so they share its code-row indices.
        self._profile = next((fr.profile for fr in frontiers.values()), None)
        self.t = 0
        self.counter = ComparisonCounter()
        self.disseminated: set[tuple[UserId, ObjectId]] = set()
        self._digest: bytes | None = None
        self._packed: tuple | None = None  # an unpickled engine's rows until attach()

    def _stores(self) -> list[tuple[str, Hashable, Frontier]]:
        return [(name, key, fr) for name in self._STORES
                for key, fr in getattr(self, name).items()]

    def config_digest(self) -> bytes:
        """Digest of the configuration that gives the stored rows their
        meaning: engine class, window, members, attribute domains in
        encoding order and every profile's code table. It hashes values
        and ids by ``repr``, so it does not depend on ``PYTHONHASHSEED``."""
        if self._digest is None:
            prof = self._profile
            head = (type(self).__name__, self.window, self._layout(),
                    prof and prof.attrs, prof and [list(idx) for idx in prof.encoder.index])
            h = hashlib.blake2b(repr(head).encode(), digest_size=16)
            for p in dict.fromkeys(fr.profile for _, _, fr in self._stores()):
                h.update(p._table)
            self._digest = h.digest()
        return self._digest

    def __getstate__(self) -> dict:
        packed = self._packed or _pack([fr for _, _, fr in self._stores()],
                                       self._profile and self._profile.encoder.col)
        # The pairs go in a fixed order: a set's order depends on its history.
        return {"window": self.window, "t": self.t,
                "counter": self.counter, "disseminated": sorted(self.disseminated, key=repr),
                "_digest": self.config_digest(), "_packed": packed}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.disseminated = set(self.disseminated)

    def attach(self, config: _Engine) -> None:
        """Make an unpickled engine runnable: share the profiles, clusters
        and encoder of ``config``, a fresh engine built from the
        configuration the state was saved under, and rebuild every
        frontier and buffer from the stored rows. Raises ``ValueError``
        when ``config`` has another configuration digest."""
        if config.config_digest() != self._digest:
            raise ValueError(
                f"engine state digest mismatch: the state was saved under configuration "
                f"{self._digest.hex()}, the engine to attach has {config.config_digest().hex()}")
        ids, steps, rows, index, lengths = self._packed
        keys = list(zip(steps.tolist(), ids))
        stores = {name: {} for name in self._STORES}
        parts = np.split(index, np.cumsum(lengths)[:-1])
        if config._profile is not None:  # local int32 -> global intp ids
            rows = rows + config._profile.encoder.col
        for (name, key, fr), part in zip(config._stores(), parts):
            store = stores[name][key] = type(fr)(fr.profile)
            store.ids = [keys[i] for i in part.tolist()]
            store._set_rows(np.ascontiguousarray(rows[part].T))
        self.__dict__.update(stores)
        for name, value in vars(config).items():  # configuration: shared
            self.__dict__.setdefault(name, value)
        self._packed = None

    def insert(self, oid: ObjectId, obj: ObjectValues) -> set[UserId]:
        """Process one arrival; returns its target users ``C_o``."""
        if self._packed is not None:
            raise RuntimeError("an unpickled engine holds no profiles: attach() it to an "
                               "engine built from the same configuration first")
        self.disseminated.clear()
        self.t += 1
        if self.window is not None and self.t > self.window:
            self._expire(self.t - self.window)
        targets = self._arrive((self.t, oid), self._profile.encode(obj))
        self.disseminated.update((c, oid) for c in targets)
        return targets

    def _mend(self, fr: Frontier, buf: _Buffer, x_out: np.ndarray, stage: str) -> list[Key]:
        """``mendParetoFrontierSW`` after ``o_out`` left ``fr``: buffer
        objects dominated by ``o_out`` join ``fr`` unless a member of it
        dominates them. Returns the promoted keys; comparisons against
        ``fr`` count under ``stage``.

        The candidates are checked at once, against ``fr`` and against
        each other, and candidate ``k`` is promoted exactly when nothing
        of either dominates it. That is the sequential loop's answer: no
        later candidate dominates ``k``, as both are in the buffer
        (Def. 10), and an earlier one that was not promoted is dominated
        by something that then dominates ``k`` too. The loop compares
        ``k`` with ``fr`` and the candidates promoted before it, so the
        count is ``|fr|`` per candidate plus a cumulative sum."""
        p, rows = buf.profile, buf.matrix()  # fr has the same profile
        self.counter.add("buffer", len(buf))
        cands = np.flatnonzero(p.compare(rows, x_out) == X_WINS)
        if not cands.size:
            return []
        xs = rows[cands]
        beaten = (p.compare(fr.matrix(), xs) == ROW_WINS).any(axis=1)
        beaten |= (p.compare(xs, xs) == ROW_WINS).any(axis=1)
        won = ~beaten
        self.counter.add(stage, cands.size * len(fr) + int((np.cumsum(won) - won).sum()))
        promoted = [buf.ids[i] for i in cands[won].tolist()]
        if promoted:
            fr.extend(promoted, xs[won])
        return promoted


class BaselineSWEngine(_Engine):
    """Alg. 1 / Alg. 4: per-user frontier (+ per-user Pareto buffer)."""

    _STORES = ("frontiers", "buffers")

    def __init__(
        self,
        attrs: Sequence[str],
        prefs_by_user: Mapping[UserId, UserPrefs],
        domains: Mapping[str, Sequence],
        window: int | None = None,
    ):
        enc = Encoder(attrs, domains)
        self.frontiers = {
            c: Frontier(Profile(attrs, p, domains, enc)) for c, p in prefs_by_user.items()
        }
        self.buffers = (
            {} if window is None
            else {c: _Buffer(fr.profile) for c, fr in self.frontiers.items()}
        )
        super().__init__(self.frontiers, window)

    def _layout(self) -> list[UserId]:
        return list(self.frontiers)

    def _arrive(self, key: Key, x: np.ndarray) -> set[UserId]:
        targets: set[UserId] = set()
        for c, fr in self.frontiers.items():
            res = fr.insert(key, x)
            self.counter.add("user", res.n_compared)
            if res.is_pareto:
                targets.add(c)
            if self.window is not None:
                self.counter.add("buffer", self.buffers[c].refresh(key, x))
        return targets

    def _expire(self, step: int) -> None:
        for c, fr in self.frontiers.items():
            buf = self.buffers[c]
            if not buf.ids or buf.ids[0][0] != step:
                continue  # o_out ∉ PB_c ⟹ o_out ∉ P_c
            out = buf.ids[0]
            x_out = buf.matrix()[0]
            if fr.discard(out):
                # Objects exclusively dominated by o_out may now be Pareto.
                promoted = self._mend(fr, buf, x_out, "user")
                self.disseminated.update((c, oid) for _, oid in promoted)
            buf.discard(out)

    def frontier_of(self, c: UserId) -> set[ObjectId]:
        return {oid for _, oid in self.frontiers[c].ids}

    def buffer_of(self, c: UserId) -> set[ObjectId]:
        return {oid for _, oid in self.buffers[c].ids}


class FTVSWEngine(_Engine):
    """Alg. 2 / Alg. 5: cluster-level frontier (+ single buffer per cluster).

    Works for both the exact variant (clusters carry ``≻_U``) and the
    approximate one (clusters carry ``≻_aU``).
    """

    _STORES = ("cluster_frontiers", "cluster_buffers", "user_frontiers")

    def __init__(
        self,
        attrs: Sequence[str],
        clusters: Sequence[Cluster],
        prefs_by_user: Mapping[UserId, UserPrefs],
        domains: Mapping[str, Sequence],
        window: int | None = None,
    ):
        self.clusters = list(clusters)
        seen: set[UserId] = set()
        for cl in self.clusters:
            for c in cl.members:
                if c in seen:
                    raise ValueError(f"user {c!r} appears in more than one cluster")
                seen.add(c)
        enc = Encoder(attrs, domains)
        self.cluster_frontiers = {
            cl.cluster_id: Frontier(Profile(attrs, cl.relation, domains, enc))
            for cl in self.clusters
        }
        self.cluster_buffers = (
            {} if window is None
            else {cid: _Buffer(fr.profile) for cid, fr in self.cluster_frontiers.items()}
        )
        # Cluster- and user-level frontiers hold the very same int vectors.
        self.user_frontiers = {
            c: Frontier(Profile(attrs, prefs_by_user[c], domains, enc))
            for cl in self.clusters
            for c in cl.members
        }
        # Each cluster's member tables, stacked for the member mend.
        self._stacks = [ProfileStack([self.user_frontiers[c].profile for c in cl.members])
                        for cl in self.clusters]
        super().__init__(self.cluster_frontiers, window)

    def _layout(self) -> list[tuple[Hashable, tuple[UserId, ...]]]:
        return [(cl.cluster_id, cl.members) for cl in self.clusters]

    def _arrive(self, key: Key, x: np.ndarray) -> set[UserId]:
        targets: set[UserId] = set()
        for cl in self.clusters:
            cid = cl.cluster_id
            res = self.cluster_frontiers[cid].insert(key, x)
            self.counter.add("cluster", res.n_compared)
            if res.is_pareto:
                for gone in res.removed:
                    # o' left P_U, so it leaves every member frontier too
                    # (case I; id removal, no comparisons).
                    for c in cl.members:
                        self.user_frontiers[c].discard(gone)
                for c in cl.members:
                    r = self.user_frontiers[c].insert(key, x)
                    self.counter.add("user", r.n_compared)
                    if r.is_pareto:
                        targets.add(c)
            # else: a true negative for every member (Thm. 2)
            if self.window is not None:
                self.counter.add("buffer", self.cluster_buffers[cid].refresh(key, x))
        return targets

    def _expire(self, step: int) -> None:
        for cl, stack in zip(self.clusters, self._stacks):
            cid = cl.cluster_id
            buf = self.cluster_buffers[cid]
            if not buf.ids or buf.ids[0][0] != step:
                continue  # o_out ∉ PB_U ⟹ o_out ∉ P_U ⊇ P_c (Thm. 6)
            out = buf.ids[0]
            x_out = buf.matrix()[0]
            fr_u = self.cluster_frontiers[cid]
            if fr_u.discard(out):
                # Cluster-level mend: buffer objects dominated only by
                # o_out (w.r.t. ≻_U) may enter P_U.
                self._mend(fr_u, buf, x_out, "cluster")
                self._mend_members(cl, stack, out, x_out)
            # else: o_out ∉ P_U ⟹ o_out ∉ any member frontier (P_c ⊆ P_U).
            buf.discard(out)

    def _mend_members(self, cl: Cluster, stack: ProfileStack, out: Key,
                      x_out: np.ndarray) -> None:
        """Per-member mend (see module docstring): members whose ``P_c``
        held ``o_out`` re-check the ``P_U`` members that ``o_out``
        dominates under their own preferences. A candidate is verified
        against *all* of ``P_U`` under ``≻_c`` (Lemma 1), not just the
        current ``P_c``: its ``c``-dominator may itself be a candidate not
        yet promoted. ``P_U`` is fixed here, so every (holder, candidate)
        pair of the cluster is independent, and the holders' compares with
        ``o_out`` and then all pairs' verifications are one stacked call
        each. No row of ``P_c`` is a candidate: ``P_c`` held ``o_out`` and
        no row of a frontier dominates another."""
        frs = [self.user_frontiers[c] for c in cl.members]
        holders = [h for h, fr in enumerate(frs) if fr.discard(out)]
        if not holders:
            return
        fr_u = self.cluster_frontiers[cl.cluster_id]
        pu = fr_u.matrix()
        out_dom = stack.compare(holders, pu, x_out)
        self.counter.add("user", out_dom.size)
        pair_h, pair_i = np.nonzero(out_dom == X_WINS)
        if not pair_i.size:
            return
        verify = stack.compare(np.array(holders)[pair_h], pu, pu[pair_i])
        self.counter.add("user", verify.size)
        won = ~(verify == ROW_WINS).any(axis=1)
        pair_h, pair_i = pair_h[won], pair_i[won]
        # Pairs run holder by holder, each holder's in P_U order.
        starts = np.flatnonzero(np.diff(pair_h, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [pair_h.size]):
            h = holders[pair_h[a].item()]
            keys = [fr_u.ids[i] for i in pair_i[a:b].tolist()]
            frs[h].extend(keys, pu[pair_i[a:b]])
            self.disseminated.update((cl.members[h], oid) for _, oid in keys)

    def cluster_frontier_of(self, cid: Hashable) -> set[ObjectId]:
        return {oid for _, oid in self.cluster_frontiers[cid].ids}

    def cluster_buffer_of(self, cid: Hashable) -> set[ObjectId]:
        return {oid for _, oid in self.cluster_buffers[cid].ids}

    def frontier_of(self, c: UserId) -> set[ObjectId]:
        return {oid for _, oid in self.user_frontiers[c].ids}
