"""Benchmark: sliding-window expiry alone — FilterThenVerifySW's buffer
mend and per-member mend, with no arrival in the timed call.

The engine is the approximate one on a movie population of 60 users in 5
latent groups, cut at h = 0.55, with W = 200. It takes in 300 objects,
so the window is full and has already slid, and is pickled there. Each
round attaches a copy of that state and times the expiry of the next
``EXPIRIES`` oldest objects, one step at a time, as the window drains.
"""
import pickle

import pytest

from repro.core.sliding import FTVSWEngine
from repro.datasets import movie
from repro.experiments.harness import build_dendrogram, clusters_for

W = 200
FED = 300
EXPIRIES = 50
ROUNDS = 20
_cache = {}


def _setup(approximate):
    if approximate not in _cache:
        ds = movie.generate(n_users=60, n_groups=5, n_stream=FED, seed=7)
        clusters = clusters_for(ds, build_dendrogram(ds), 0.55, approximate=approximate)

        def make():
            return FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=W)

        eng = make()
        for oid, vals in ds.stream:
            eng.insert(oid, vals)
        _cache[approximate] = make, pickle.dumps(eng)
    return _cache[approximate]


@pytest.mark.parametrize("approximate", [True, False], ids=["approx", "exact"])
def test_expire(benchmark, approximate):
    make, state = _setup(approximate)
    first = FED - W + 1  # the step of the oldest object in the window

    def restored():
        eng = pickle.loads(state)
        eng.attach(make())
        return (eng,), {}

    def drain(eng):
        for step in range(first, first + EXPIRIES):
            eng._expire(step)
        return eng

    eng = benchmark.pedantic(drain, setup=restored, rounds=ROUNDS)
    assert eng.counter.total > pickle.loads(state).counter.total
    assert eng.disseminated  # some mend promoted an object
