"""Benchmark: the dominance kernel at fixed frontier sizes — one arrival's
``Frontier.insert`` (admitted with no eviction, or rejected) and the
per-member mend's compare of ``c`` candidates against all of ``P_U``.

Each insert round encodes its object afresh, as an arrival is, so the
object's code row is computed inside the timed call, and inserts into a
copy of the same frontier. The frontier is the first ``m`` Pareto-optimal
objects of a movie stream under one user's profile.
"""
import copy
from itertools import cycle

import numpy as np
import pytest

from repro.core.dominance import ROW_WINS, Profile, brute_force_frontier
from repro.core.frontier import Frontier
from repro.datasets import movie

SIZES = [16, 64, 128]
CANDIDATES = 8
ROUNDS = 300
_cache = {}


def _setup(m):
    """The profile, a frontier of ``m`` Pareto-optimal objects, the other
    Pareto-optimal objects (each admitted, evicting nothing) and objects
    the frontier dominates."""
    if not _cache:
        ds = movie.generate(n_users=12, n_groups=2, n_stream=3000)
        profile = Profile(ds.attrs, ds.prefs[sorted(ds.users)[0]], ds.domains)
        objs = dict(ds.stream)
        best = brute_force_frontier(profile, objs)
        _cache.update(profile=profile, objs=objs, pareto=[o for o in objs if o in best])
    profile, objs, pareto = _cache["profile"], _cache["objs"], _cache["pareto"]
    fr = Frontier(profile)
    for oid in pareto[:m]:
        fr.add_unchecked(oid, profile.encode(objs[oid]))
    admitted = [objs[o] for o in pareto[m:]]
    rejected = [v for v in objs.values()
                if ROW_WINS in profile.compare(fr.matrix(), profile.encode(v)).tobytes()]
    return profile, fr, admitted, rejected


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("outcome", ["admitted", "rejected"])
def test_frontier_insert(benchmark, m, outcome):
    profile, fr, admitted, rejected = _setup(m)
    values = cycle(admitted if outcome == "admitted" else rejected)

    def arrival():
        new = copy.copy(fr)  # rows are read-only, so the copy may share them
        new.ids = list(fr.ids)
        return (new, profile.encode(next(values))), {}

    res = benchmark.pedantic(lambda f, x: f.insert("new", x), setup=arrival, rounds=ROUNDS)
    assert res.n_compared == m
    assert res.is_pareto == (outcome == "admitted") and res.removed == []


@pytest.mark.parametrize("m", SIZES)
def test_mend_compare(benchmark, m):
    profile, fr, _, _ = _setup(m)
    pu = fr.matrix()
    cands = np.linspace(0, m - 1, CANDIDATES).astype(np.intp)
    code = benchmark(lambda: profile.compare(pu, pu[cands]))
    assert code.shape == (CANDIDATES, m) and not (code == ROW_WINS).any()
