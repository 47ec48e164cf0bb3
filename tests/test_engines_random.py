"""Append-only engines on random posets/streams: per-step brute-force
equivalence, Theorem 2 invariants, and the shared-computation accounting."""
import numpy as np
import pytest

from repro.core.common import cluster_common_relation, make_exact_clusters
from repro.core.dominance import Profile, brute_force_frontier
from repro.core.sliding import BaselineSWEngine, FTVSWEngine
from repro.posets.poset import Poset


def _random_setup(seed, n_users=6, n_attrs=3, dom_size=5, n_objects=60):
    rng = np.random.default_rng(seed)
    dom = [f"v{i}" for i in range(dom_size)]
    attrs = [f"d{i}" for i in range(n_attrs)]

    def rand_poset():
        order = list(rng.permutation(dom))
        pairs = [
            (order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if rng.random() < 0.5
        ]
        return Poset(pairs, domain=dom)

    users = {f"c{k}": {d: rand_poset() for d in attrs} for k in range(n_users)}
    stream = [
        (f"o{t}", tuple(rng.choice(dom) for _ in attrs)) for t in range(n_objects)
    ]
    domains = {d: dom for d in attrs}
    return attrs, domains, users, stream


@pytest.mark.parametrize("seed", range(8))
def test_baseline_matches_brute_force_each_step(seed):
    attrs, domains, users, stream = _random_setup(seed)
    eng = BaselineSWEngine(attrs, users, domains)
    profiles = {c: Profile(attrs, p, domains) for c, p in users.items()}
    seen = {}
    for oid, obj in stream:
        seen[oid] = obj
        targets = eng.insert(oid, obj)
        for c in users:
            expect = brute_force_frontier(profiles[c], seen)
            assert eng.frontier_of(c) == expect, (oid, c)
            assert (c in targets) == (oid in expect)


@pytest.mark.parametrize("seed", range(8))
def test_ftv_exact_matches_baseline_and_theorem2(seed):
    attrs, domains, users, stream = _random_setup(seed)
    members = sorted(users)
    partition = [members[:3], members[3:]]
    clusters = make_exact_clusters(partition, users, attrs)
    ftv = FTVSWEngine(attrs, clusters, users, domains)
    base = BaselineSWEngine(attrs, users, domains)
    for oid, obj in stream:
        assert ftv.insert(oid, obj) == base.insert(oid, obj), oid
        for cl in clusters:
            pu = ftv.cluster_frontier_of(cl.cluster_id)
            for c in cl.members:
                assert ftv.frontier_of(c) <= pu  # Theorem 2
                assert ftv.frontier_of(c) == base.frontier_of(c)


@pytest.mark.parametrize("seed", range(4))
def test_cluster_frontier_is_virtual_user_frontier(seed):
    attrs, domains, users, stream = _random_setup(seed)
    members = sorted(users)
    clusters = make_exact_clusters([members], users, attrs)
    ftv = FTVSWEngine(attrs, clusters, users, domains)
    rel = cluster_common_relation(members, users, attrs)
    u_profile = Profile(attrs, rel, domains)
    seen = {}
    for oid, obj in stream:
        seen[oid] = obj
        ftv.insert(oid, obj)
    assert ftv.cluster_frontier_of(0) == brute_force_frontier(u_profile, seen)


@pytest.mark.parametrize("seed", range(4))
def test_singleton_clusters_degenerate_to_baseline_work(seed):
    """With one user per cluster the filter relation *is* the user's own
    relation, so FTV's user-stage work equals Baseline's."""
    attrs, domains, users, stream = _random_setup(seed, n_users=4)
    clusters = make_exact_clusters([[c] for c in sorted(users)], users, attrs)
    ftv = FTVSWEngine(attrs, clusters, users, domains)
    base = BaselineSWEngine(attrs, users, domains)
    for oid, obj in stream:
        assert ftv.insert(oid, obj) == base.insert(oid, obj)
    # Cluster stage does the same comparisons Baseline's user stage does;
    # the user stage only sees survivors.
    assert ftv.counter.by_stage["cluster"] == base.counter.by_stage["user"]


def test_insert_returns_target_users_not_cluster_members():
    attrs, domains, users, stream = _random_setup(0, n_users=4)
    clusters = make_exact_clusters([sorted(users)], users, attrs)
    ftv = FTVSWEngine(attrs, clusters, users, domains)
    for oid, obj in stream[:20]:
        targets = ftv.insert(oid, obj)
        assert targets <= set(users)
