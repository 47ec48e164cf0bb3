"""Sliding-window engines (Algorithms 4-5): paper examples + brute-force
window-frontier equivalence at every step on random streams; engine state
survives pickling."""
import os
import pickle
import pickletools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approx_cluster_relation
from repro.core.common import Cluster, cluster_common_relation, make_exact_clusters
from repro.core.dominance import ROW_WINS, X_WINS, Profile, brute_force_frontier
from repro.core.sliding import BaselineSWEngine, FTVSWEngine
from repro.datasets import laptop, movie
from repro.experiments.harness import build_dendrogram, clusters_for
from repro.posets.poset import Poset


def _stream_table_i(engine, upto):
    for i in range(1, upto + 1):
        engine.insert(f"o{i}", laptop.PRODUCTS[f"o{i}"])


def _stream_table_viii(engine, upto):
    for i in range(1, upto + 1):
        engine.insert(f"o{i}", laptop.SW_PRODUCTS[f"o{i}"])


class TestExample15:
    """W = 5, in = 10: window (5, 10] ⇒ P_c1 = {o8}, P_c2 = {o7, o8}."""

    def test_baseline_sw(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=5)
        _stream_table_i(eng, 10)
        assert eng.frontier_of("c1") == {"o8"}
        assert eng.frontier_of("c2") == {"o7", "o8"}

    def test_ftv_sw(self):
        clusters = make_exact_clusters([["c1", "c2"]], laptop.USER_PREFS, laptop.ATTRS)
        eng = FTVSWEngine(
            laptop.ATTRS, clusters, laptop.USER_PREFS, laptop.DOMAINS, window=5
        )
        _stream_table_i(eng, 10)
        assert eng.frontier_of("c1") == {"o8"}
        assert eng.frontier_of("c2") == {"o7", "o8"}


class TestExample16:
    def test_pareto_buffer_c1(self):
        # PB_c1 over (5, 10] = {o8, o9, o10}: o6, o7 are dominated by the
        # later o8 (Thm. 5) so they are never buffered.
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=5)
        _stream_table_i(eng, 10)
        assert eng.buffer_of("c1") == {"o8", "o9", "o10"}

    def test_o10_acquires_pareto_optimality_after_o8_expires(self):
        # Example 16: o10 becomes Pareto-optimal once o8 leaves (window
        # (8, 13]).
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=5)
        _stream_table_i(eng, 13)
        assert "o10" in eng.frontier_of("c1")
        assert ("c1", "o10") in eng.disseminated


class TestExample17:
    """Table VIII stream, W = 6. The cluster-level rows of Table X
    (P_U and the final target users C_{o7}) reproduce exactly; the
    per-user rows of Tables IX/X contradict Table II's preferences (e.g.
    Example 2's tuple (10-12.9, 16-18.9) ∈ ≻_c1 forces o3 ≻_c1 o1), so
    per-user sets are pinned to their Def. 9/10 values — DESIGN.md
    erratum #3."""

    def test_baseline_sw_phase1(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=6)
        _stream_table_viii(eng, 6)
        assert eng.frontier_of("c1") == {"o3"}  # paper: {o1, o3} (erratum)
        # o6 = (10-12.9, Samsung, quad) is undominated for c2 (Apple and
        # Samsung are incomparable, quad is c2's top CPU) — the paper's
        # {o3, o4} misses it.
        assert eng.frontier_of("c2") == {"o3", "o4", "o6"}
        assert eng.buffer_of("c1") == {"o3", "o4", "o5", "o6"}
        assert eng.buffer_of("c2") == {"o3", "o4", "o6"}

    def test_baseline_sw_phase3(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=6)
        _stream_table_viii(eng, 7)
        assert eng.frontier_of("c1") == {"o7"}
        assert eng.frontier_of("c2") == {"o4", "o6", "o7"}
        assert eng.buffer_of("c1") == {"o7"}  # o7 ≻_c1 o4 (Thm. 5)
        assert eng.buffer_of("c2") == {"o4", "o6", "o7"}

    def test_ftv_sw_phases(self):
        clusters = make_exact_clusters([["c1", "c2"]], laptop.USER_PREFS, laptop.ATTRS)
        eng = FTVSWEngine(
            laptop.ATTRS, clusters, laptop.USER_PREFS, laptop.DOMAINS, window=6
        )
        _stream_table_viii(eng, 6)
        # Table X says P_U = {o1, o3, o4} but o6 is undominated w.r.t. ≻_U
        # too (erratum #3) — Def. 9 keeps it.
        assert eng.cluster_frontier_of(0) == {"o1", "o3", "o4", "o6"}
        assert eng.frontier_of("c1") == {"o3"}  # Def. 9 (erratum #3)
        assert eng.frontier_of("c2") == {"o3", "o4", "o6"}
        assert eng.cluster_buffer_of(0) == {"o1", "o3", "o4", "o5", "o6"}  # Table X
        # o7 arrives (and o1 expires): Table X final phase. The paper drops
        # o6 but o7 ⊁_U o6 (dual vs quad incomparable in ≻_U^cpu) — Def. 10
        # keeps it (DESIGN.md erratum #2).
        targets = eng.insert("o7", laptop.SW_PRODUCTS["o7"])
        assert targets == {"c1", "c2"}  # C_{o7} = {c1, c2}, as the paper says
        assert eng.cluster_frontier_of(0) == {"o4", "o6", "o7"}
        assert eng.frontier_of("c1") == {"o7"}
        assert eng.frontier_of("c2") == {"o4", "o6", "o7"}
        assert eng.cluster_buffer_of(0) == {"o4", "o6", "o7"}

    def test_after_expiry_of_o1(self):
        # Window (1, 6]: o1 has expired; per-user and cluster frontiers
        # match Def. 9 (o6 included, erratum #3).
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS, window=5)
        _stream_table_viii(eng, 6)  # window (1, 6]
        assert eng.frontier_of("c1") == {"o3"}
        assert eng.frontier_of("c2") == {"o3", "o4", "o6"}
        clusters = make_exact_clusters([["c1", "c2"]], laptop.USER_PREFS, laptop.ATTRS)
        ftv = FTVSWEngine(
            laptop.ATTRS, clusters, laptop.USER_PREFS, laptop.DOMAINS, window=5
        )
        _stream_table_viii(ftv, 6)
        assert ftv.cluster_frontier_of(0) == {"o3", "o4", "o6"}


def _random_setup(seed, n_users=4, n_attrs=3, dom_size=5):
    rng = np.random.default_rng(seed)
    dom = [f"v{i}" for i in range(dom_size)]
    attrs = [f"d{i}" for i in range(n_attrs)]

    def rand_poset():
        order = list(rng.permutation(dom))
        pairs = [
            (order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if rng.random() < 0.45
        ]
        return Poset(pairs, domain=dom)

    users = {f"c{k}": {d: rand_poset() for d in attrs} for k in range(n_users)}
    stream = [
        (f"o{t}", tuple(rng.choice(dom) for _ in attrs)) for t in range(60)
    ]
    domains = {d: dom for d in attrs}
    return attrs, domains, users, stream


class TestRandomStreamInvariants:
    """Def. 9/10 checked by brute force after *every* arrival."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("window", [3, 7, 20])
    def test_baseline_sw_equals_window_brute_force(self, seed, window):
        attrs, domains, users, stream = _random_setup(seed)
        eng = BaselineSWEngine(attrs, users, domains, window=window)
        profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
        for t, (oid, obj) in enumerate(stream, start=1):
            eng.insert(oid, obj)
            alive = dict(stream[max(0, t - window) : t])
            for c in users:
                expect = brute_force_frontier(profiles[c], alive)
                assert eng.frontier_of(c) == expect, (oid, c)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("window", [3, 7, 20])
    def test_ftv_sw_equals_window_brute_force(self, seed, window):
        attrs, domains, users, stream = _random_setup(seed)
        members = sorted(users)
        partition = [members[:2], members[2:]]
        clusters = make_exact_clusters(partition, users, attrs)
        eng = FTVSWEngine(attrs, clusters, users, domains, window=window)
        profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
        cluster_profiles = {
            cl.cluster_id: Profile(attrs, cl.relation, domains) for cl in clusters
        }
        for t, (oid, obj) in enumerate(stream, start=1):
            eng.insert(oid, obj)
            alive = dict(stream[max(0, t - window) : t])
            for cl in clusters:
                # P_U is the window frontier of the virtual user (Def. 9).
                assert eng.cluster_frontier_of(cl.cluster_id) == brute_force_frontier(
                    cluster_profiles[cl.cluster_id], alive
                ), (oid, cl.cluster_id)
                for c in cl.members:
                    assert eng.frontier_of(c) == brute_force_frontier(
                        profiles[c], alive
                    ), (oid, c)

    @pytest.mark.parametrize("seed", range(4))
    def test_buffer_definition_10(self, seed):
        """PB_c = alive objects not dominated by any *later* alive object."""
        attrs, domains, users, stream = _random_setup(seed)
        window = 9
        eng = BaselineSWEngine(attrs, users, domains, window=window)
        profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
        for t, (oid, obj) in enumerate(stream, start=1):
            eng.insert(oid, obj)
            alive = stream[max(0, t - window) : t]
            for c in users:
                expect = set()
                for i, (oi, vi) in enumerate(alive):
                    if not any(
                        profiles[c].dominates(vj, vi) for oj, vj in alive[i + 1 :]
                    ):
                        expect.add(oi)
                assert eng.buffer_of(c) == expect, (oid, c)

    @pytest.mark.parametrize("seed", range(4))
    def test_theorem6_buffer_superset(self, seed):
        """PB_U ⊇ P_U and PB_U ⊇ PB_c for every member c."""
        attrs, domains, users, stream = _random_setup(seed)
        window = 9
        members = sorted(users)
        clusters = make_exact_clusters([members], users, attrs)
        ftv = FTVSWEngine(attrs, clusters, users, domains, window=window)
        base = BaselineSWEngine(attrs, users, domains, window=window)
        for oid, obj in stream:
            ftv.insert(oid, obj)
            base.insert(oid, obj)
            pb_u = ftv.cluster_buffer_of(0)
            assert ftv.cluster_frontier_of(0) <= pb_u
            for c in members:
                assert base.buffer_of(c) <= pb_u

    @pytest.mark.parametrize("seed", range(6))
    def test_dissemination_sets_agree(self, seed):
        """BaselineSW and exact FilterThenVerifySW deliver identical
        (user, object) pairs — the exact variant loses nothing."""
        attrs, domains, users, stream = _random_setup(seed)
        window = 8
        members = sorted(users)
        clusters = make_exact_clusters([members[:2], members[2:]], users, attrs)
        ftv = FTVSWEngine(attrs, clusters, users, domains, window=window)
        base = BaselineSWEngine(attrs, users, domains, window=window)
        for oid, obj in stream:
            ftv.insert(oid, obj)
            base.insert(oid, obj)
            assert ftv.disseminated == base.disseminated, oid

    @pytest.mark.parametrize("seed", range(3))
    def test_theorem5_never_disseminated_after_later_dominator(self, seed):
        """Thm. 5: an object dominated by a later object never (re)enters
        the frontier after that arrival."""
        attrs, domains, users, stream = _random_setup(seed)
        eng = BaselineSWEngine(attrs, users, domains, window=10)
        profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
        dead: set[tuple[str, str]] = set()  # (user, object) pairs
        for t, (oid, obj) in enumerate(stream, start=1):
            for c in users:
                for oid2, obj2 in stream[max(0, t - 10) : t - 1]:
                    if profiles[c].dominates(obj, obj2):
                        dead.add((c, oid2))
            eng.insert(oid, obj)
            for c in users:
                for f in eng.frontier_of(c):
                    assert (c, f) not in dead

    def test_window_larger_than_stream_matches_append_only(self):
        attrs, domains, users, stream = _random_setup(0)
        sw = BaselineSWEngine(attrs, users, domains, window=10_000)
        append = BaselineSWEngine(attrs, users, domains)
        for oid, obj in stream:
            assert sw.insert(oid, obj) == append.insert(oid, obj)
        for c in users:
            assert sw.frontier_of(c) == append.frontier_of(c)


def _replayed_three_arrivals():
    """One user, W = 2, ``X=lo, X=hi, Z=lo``: the second ``X`` evicts the
    first, and when the first expires at step 3 the window is ``{X=hi,
    Z=lo}``, whose frontier is ``{X}``."""
    dom = ["lo", "hi"]
    users = {"c0": {"d0": Poset([("hi", "lo")], domain=dom)}}
    stream = [("X", ("lo",)), ("X", ("hi",)), ("Z", ("lo",))]
    return ["d0"], {"d0": dom}, users, stream, 2


def _replayed_random_stream():
    attrs, domains, users, stream = _random_setup(0)
    return attrs, domains, users, [(f"o{t % 5}", obj) for t, (_, obj) in enumerate(stream)], 9


@pytest.mark.parametrize("case", [_replayed_three_arrivals, _replayed_random_stream],
                         ids=["three-arrivals", "random"])
@pytest.mark.parametrize("kind", ["baseline", "ftv"])
def test_replayed_ids_follow_the_window(case, kind):
    """Def. 9 when ids arrive again: the window is the objects of the last
    ``W`` arrival steps, whatever their ids, so the brute force is keyed by
    step and an expiry removes only the object of its own step."""
    attrs, domains, users, stream, window = case()
    if kind == "baseline":
        eng = BaselineSWEngine(attrs, users, domains, window=window)
    else:
        clusters = make_exact_clusters([sorted(users)], users, attrs)
        eng = FTVSWEngine(attrs, clusters, users, domains, window=window)
    profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
    for t, (oid, obj) in enumerate(stream, start=1):
        eng.insert(oid, obj)
        alive = {s: stream[s - 1][1] for s in range(max(1, t - window + 1), t + 1)}
        for c in users:
            steps = brute_force_frontier(profiles[c], alive)
            assert eng.frontier_of(c) == {stream[s - 1][0] for s in steps}, (t, c)


class _SequentialMend:
    """The mends as one compare per candidate: the buffer mend checks each
    candidate against the frontier as it grows, the member mend each
    holder and candidate on its own. The engines' stacked mends must
    match it pair for pair and count for count."""

    def _mend(self, fr, buf, x_out, stage):
        rows = buf.matrix()
        candidates = np.flatnonzero(buf.profile.compare(rows, x_out) == X_WINS)
        self.counter.add("buffer", len(buf))
        promoted = []
        for i in candidates:
            cand, cand_x = buf.ids[i], rows[i]
            code = fr.profile.compare(fr.matrix(), cand_x)
            self.counter.add(stage, code.size)
            if ROW_WINS not in code.tobytes():
                fr.add_unchecked(cand, cand_x)
                promoted.append(cand)
        return promoted

    def _mend_members(self, cl, stack, out, x_out):
        fr_u = self.cluster_frontiers[cl.cluster_id]
        pu_ids, pu = list(fr_u.ids), fr_u.matrix()
        for c in cl.members:
            fr_c = self.user_frontiers[c]
            if not fr_c.discard(out):
                continue
            out_dom = fr_c.profile.compare(pu, x_out)
            self.counter.add("user", out_dom.size)
            in_pc = set(fr_c.ids)
            for i in np.flatnonzero(out_dom == X_WINS):
                if pu_ids[i] in in_pc:
                    continue
                code = fr_c.profile.compare(pu, pu[i])
                self.counter.add("user", code.size)
                if ROW_WINS not in code.tobytes():
                    fr_c.add_unchecked(pu_ids[i], pu[i])
                    self.disseminated.add((c, pu_ids[i][1]))


class _SequentialBaselineSW(_SequentialMend, BaselineSWEngine):
    pass


class _SequentialFTVSW(_SequentialMend, FTVSWEngine):
    pass


@given(seed=st.integers(0, 2**16), window=st.sampled_from([1, 2, 3, 5, 40]),
       stream=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)),
                       min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_stacked_mends_equal_the_sequential_mend(seed, window, stream):
    """At every step the three windowed engines show the sequential mend's
    pairs, stage counts and stores, row for row. Three values per
    attribute make identical objects common, and six ids replay often."""
    attrs, domains, users, _ = _random_setup(seed, n_users=5, n_attrs=2, dom_size=3)
    dom = domains[attrs[0]]
    partition = [["c0", "c1", "c2"], ["c3", "c4"]]
    approx = [Cluster(i, tuple(m), approx_cluster_relation(m, users, attrs))
              for i, m in enumerate(partition)]
    exact = make_exact_clusters(partition, users, attrs)
    pairs = [(BaselineSWEngine(attrs, users, domains, window=window),
              _SequentialBaselineSW(attrs, users, domains, window=window))]
    pairs += [(FTVSWEngine(attrs, cls, users, domains, window=window),
               _SequentialFTVSW(attrs, cls, users, domains, window=window))
              for cls in (exact, approx)]

    def view(eng):
        return (eng.disseminated, eng.counter.by_stage,
                [(name, key, list(fr.ids)) for name, key, fr in eng._stores()])

    for t, (i, a, b) in enumerate(stream, start=1):
        for eng, ref in pairs:
            obj = (dom[a], dom[b])
            assert eng.insert(f"o{i}", obj) == ref.insert(f"o{i}", obj)
            assert view(eng) == view(ref), (t, type(eng).__name__)


def test_state_stays_bounded_on_long_stream():
    """Windowed engine state is O(W), not O(stream length): the pickled
    engine after 3,000 arrivals is at most 1.2x its size after 1,000."""
    ds = movie.generate(n_users=12, n_groups=3, n_stream=3000)
    clusters = clusters_for(ds, build_dendrogram(ds), 0.55, approximate=True)
    eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=100)
    size = {}
    for t, (oid, vals) in enumerate(ds.stream, start=1):
        eng.insert(oid, vals)
        if t in (1000, 3000):
            size[t] = len(pickle.dumps(eng))
    assert size[3000] <= 1.2 * size[1000], size


#: ``counter.by_stage`` after the 150-object movie stream (10 users, cut at
#: h = 0.6 into two clusters of 5), W = None or 40. Read off the engines
#: as they stand: a change that moves work between stages, or drops or
#: adds comparisons inside one, shows here even when outputs stay equal.
STAGE_COUNTS = {
    ("baseline", None): {"user": 42487},
    ("baseline", 40): {"buffer": 57094, "user": 37765},
    ("exact", None): {"cluster": 12072, "user": 22750},
    ("exact", 40): {"buffer": 13977, "cluster": 8818, "user": 49248},
    ("approx", None): {"cluster": 10286, "user": 18706},
    ("approx", 40): {"buffer": 12635, "cluster": 8144, "user": 40796},
}


@pytest.fixture(scope="module")
def counted_movie():
    ds = movie.generate(n_users=10, n_groups=2, n_stream=150)
    return ds, build_dendrogram(ds)


@pytest.mark.parametrize("kind, window", list(STAGE_COUNTS))
def test_comparison_counts_by_stage(counted_movie, kind, window):
    ds, dend = counted_movie
    if kind == "baseline":
        eng = BaselineSWEngine(ds.attrs, ds.prefs, ds.domains, window=window)
    else:
        clusters = clusters_for(ds, dend, 0.6, approximate=kind == "approx")
        eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)
    for oid, vals in ds.stream:
        eng.insert(oid, vals)
    assert eng.counter.by_stage == STAGE_COUNTS[kind, window]


def _counted_engine(ds, dend, kind, window):
    if kind == "baseline":
        return BaselineSWEngine(ds.attrs, ds.prefs, ds.domains, window=window)
    clusters = clusters_for(ds, dend, 0.6, approximate=kind == "approx")
    return FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)


def _step_view(eng, window):
    """What one arrival step shows: its pairs, the stage counts, every
    frontier and buffer, and the pickled engine."""
    if isinstance(eng, FTVSWEngine):
        cids = [cl.cluster_id for cl in eng.clusters]
        users = [c for cl in eng.clusters for c in cl.members]
        sets = {("P_U", cid): eng.cluster_frontier_of(cid) for cid in cids}
        if window:
            sets.update({("PB_U", cid): eng.cluster_buffer_of(cid) for cid in cids})
    else:
        users = list(eng.frontiers)
        sets = {("PB_c", c): eng.buffer_of(c) for c in users} if window else {}
    sets.update({("P_c", c): eng.frontier_of(c) for c in users})
    return set(eng.disseminated), dict(eng.counter.by_stage), sets, pickle.dumps(eng)


ROUND_TRIP_STEPS = 90  #: W = 40 expires objects from step 41 on


@pytest.fixture(scope="module")
def uninterrupted(counted_movie):
    """``uninterrupted(kind, window)``: the step views of one engine that
    runs the first ``ROUND_TRIP_STEPS`` arrivals without a restart."""
    ds, dend = counted_movie
    runs = {}

    def views(kind, window):
        if (kind, window) not in runs:
            eng = _counted_engine(ds, dend, kind, window)
            runs[kind, window] = []
            for oid, vals in ds.stream[:ROUND_TRIP_STEPS]:
                eng.insert(oid, vals)
                runs[kind, window].append(_step_view(eng, window))
        return runs[kind, window]

    return views


@pytest.mark.parametrize("kind, window", list(STAGE_COUNTS))
@given(restarts=st.sets(st.integers(1, ROUND_TRIP_STEPS), max_size=5))
@settings(max_examples=6, deadline=None)
def test_pickle_round_trip_continues_exactly(counted_movie, uninterrupted, kind, window, restarts):
    """Pickled, loaded and attached before any of the ``restarts`` steps,
    an engine goes on exactly as one that never stopped."""
    ds, dend = counted_movie
    want = uninterrupted(kind, window)
    eng = _counted_engine(ds, dend, kind, window)
    for t, (oid, vals) in enumerate(ds.stream[:ROUND_TRIP_STEPS], start=1):
        if t in restarts:
            eng = pickle.loads(pickle.dumps(eng))
            eng.attach(_counted_engine(ds, dend, kind, window))
        eng.insert(oid, vals)
        assert _step_view(eng, window) == want[t - 1], (t, sorted(restarts))


@pytest.mark.parametrize("window", [None, 9])
def test_round_trip_keeps_replayed_ids_apart(window):
    """An id that arrives again with other values names two rows; the
    state keeps both."""
    attrs, domains, users, stream = _random_setup(0)
    stream = [(f"o{t % 5}", obj) for t, (_, obj) in enumerate(stream)]
    eng = BaselineSWEngine(attrs, users, domains, window=window)
    restored = BaselineSWEngine(attrs, users, domains, window=window)

    def rows(e):
        return [(fr.ids, fr.matrix().tolist())
                for store in (e.frontiers, e.buffers) for fr in store.values()]

    for oid, obj in stream:
        restored = pickle.loads(pickle.dumps(restored))
        restored.attach(BaselineSWEngine(attrs, users, domains, window=window))
        assert restored.insert(oid, obj) == eng.insert(oid, obj), oid
        assert rows(restored) == rows(eng), oid


@pytest.mark.parametrize("kind", ["baseline", "ftv"])
def test_state_rows_are_local_int32_value_ids(kind):
    """A stored row holds each value's position in its attribute's domain,
    as ``int32``, whatever ids the engine uses in memory; the configuration
    digest does not cover that encoding, so this pins what a saved state
    means. A state so stored attaches and goes on pair for pair."""
    attrs, domains, users, stream = _random_setup(1)

    def make():
        if kind == "baseline":
            return BaselineSWEngine(attrs, users, domains, window=9)
        members = sorted(users)
        clusters = make_exact_clusters([members[:2], members[2:]], users, attrs)
        return FTVSWEngine(attrs, clusters, users, domains, window=9)

    values = dict(stream)
    eng, ref = make(), make()
    for t, (oid, obj) in enumerate(stream, start=1):
        assert eng.insert(oid, obj) == ref.insert(oid, obj), oid
        assert (eng.disseminated, eng.counter) == (ref.disseminated, ref.counter), oid
        if t % 7:
            continue
        eng = pickle.loads(pickle.dumps(eng))
        ids, _, rows, _, _ = eng._packed
        assert rows.dtype == np.int32
        assert rows.tolist() == [[domains[d].index(v) for d, v in zip(attrs, values[o])]
                                 for o in ids]
        eng.attach(make())


@pytest.mark.parametrize("kind", ["baseline", "approx"])
def test_pickled_engine_holds_no_configuration(counted_movie, kind):
    """The state names no profile, relation or cluster class: those are
    rebuilt from the engine's inputs, not carried in every pickle."""
    ds, dend = counted_movie
    eng = _counted_engine(ds, dend, kind, 40)
    for oid, vals in ds.stream[:60]:
        eng.insert(oid, vals)
    blob = pickle.dumps(eng)
    strings = {arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)}
    assert type(eng).__name__ in strings
    assert not strings & {"Profile", "Poset", "Cluster", "Frontier", "_Buffer"}, strings


def test_unpickled_engine_reads_without_profiles(counted_movie):
    ds, dend = counted_movie
    eng = _counted_engine(ds, dend, "exact", 40)
    for oid, vals in ds.stream[:60]:
        eng.insert(oid, vals)
    loaded = pickle.loads(pickle.dumps(eng))
    assert (loaded.t, loaded.counter, loaded.disseminated) == (eng.t, eng.counter, eng.disseminated)
    with pytest.raises(RuntimeError, match="attach"):
        loaded.insert(*ds.stream[60])
    assert loaded.t == eng.t


def test_attach_checks_the_configuration_digest(counted_movie):
    ds, dend = counted_movie
    eng = _counted_engine(ds, dend, "exact", 40)
    eng.insert(*ds.stream[0])
    for other in (_counted_engine(ds, dend, "approx", 40),
                  _counted_engine(ds, dend, "exact", 41),
                  _counted_engine(ds, dend, "exact", None)):
        with pytest.raises(ValueError, match="digest mismatch"):
            pickle.loads(pickle.dumps(eng)).attach(other)


_DIGEST_SCRIPT = """
import hashlib
from repro.core.common import make_exact_clusters
from repro.core.sliding import FTVSWEngine
from repro.dataflow.dissemination import _payload
from repro.datasets import movie
ds = movie.generate(n_users=6, n_groups=2, n_stream=10)
users = sorted(ds.users)
clusters = make_exact_clusters([users[:3], users[3:]], ds.prefs, ds.attrs)
eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=25)
payload = _payload(clusters, ds.prefs, ds.attrs, ds.domains, 25)
print(eng.config_digest().hex(), hashlib.sha256(payload).hexdigest())
"""


def test_config_digest_ignores_the_hash_seed():
    """Workers and restarted drivers may run under other hash seeds: the
    digest is equal, although the pickled payload (frozensets) is not."""
    out = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        out.append(proc.stdout.split())
    (digest0, payload0), (digest1, payload1) = out
    assert digest0 == digest1
    assert payload0 != payload1
