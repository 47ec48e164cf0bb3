"""Benchmark: HAC set-up (`cluster_users`, Sec. V / VI-C) on the movie
generator (seed 7, one latent group per 12 users) at 60 and 240 users,
under the default vector Jaccard and the exact Jaccard. Data generation
is outside the timed call."""
import pytest

from repro.core.hac import cluster_users
from repro.datasets import movie

_cache = {}


def _prefs(n_users):
    if n_users not in _cache:
        _cache[n_users] = movie.generate(
            n_users=n_users, n_groups=n_users // 12, n_stream=1, seed=7
        )
    return _cache[n_users]


@pytest.mark.parametrize("measure", ["vector_jaccard", "jaccard"])
@pytest.mark.parametrize("n_users", [60, 240])
def test_cluster_users(benchmark, n_users, measure):
    ds = _prefs(n_users)
    dend = benchmark.pedantic(
        lambda: cluster_users(ds.attrs, ds.prefs, measure=measure), rounds=3, iterations=1
    )
    assert len(dend.merges) == n_users - 1
