"""Synthetic dataset generators: determinism, validity, and the latent
structure the paper's algorithms rely on."""
import itertools

import numpy as np
import pytest

from repro.core.similarity import mean_attr_similarity, tuple_frequencies, vec_jaccard
from repro.datasets import laptop, movie, publication
from repro.posets.poset import is_strict_partial_order


@pytest.fixture(scope="module")
def movie_ds():
    return movie.generate(n_users=16, n_groups=4, n_stream=120)


@pytest.fixture(scope="module")
def pub_ds():
    return publication.generate(n_users=16, n_groups=4, n_stream=120)


@pytest.mark.parametrize("gen", [movie.generate, publication.generate])
def test_deterministic_in_seed(gen):
    a = gen(n_users=8, n_groups=2, n_stream=40, seed=3)
    b = gen(n_users=8, n_groups=2, n_stream=40, seed=3)
    assert a.stream == b.stream
    assert {
        (u, d, p.pairs) for u in a.users for d, p in a.prefs[u].items()
    } == {(u, d, p.pairs) for u in b.users for d, p in b.prefs[u].items()}


@pytest.mark.parametrize("gen", [movie.generate, publication.generate])
def test_different_seed_differs(gen):
    a = gen(n_users=8, n_groups=2, n_stream=40, seed=3)
    b = gen(n_users=8, n_groups=2, n_stream=40, seed=4)
    assert a.stream != b.stream


@pytest.mark.parametrize("ds_name", ["movie_ds", "pub_ds"])
def test_prefs_are_strict_partial_orders(ds_name, request):
    ds = request.getfixturevalue(ds_name)
    for u in ds.users:
        for d in ds.attrs:
            assert is_strict_partial_order(ds.prefs[u][d].pairs)


@pytest.mark.parametrize("ds_name", ["movie_ds", "pub_ds"])
def test_every_user_covers_every_attr(ds_name, request):
    ds = request.getfixturevalue(ds_name)
    for u in ds.users:
        assert set(ds.prefs[u]) == set(ds.attrs)


@pytest.mark.parametrize("ds_name", ["movie_ds", "pub_ds"])
def test_stream_values_within_domains(ds_name, request):
    ds = request.getfixturevalue(ds_name)
    for oid, vals in ds.stream:
        for d, v in zip(ds.attrs, vals):
            assert v in ds.domains[d], (oid, d, v)


@pytest.mark.parametrize("ds_name", ["movie_ds", "pub_ds"])
def test_stats_schema(ds_name, request):
    ds = request.getfixturevalue(ds_name)
    assert list(ds.stats.columns) == ["user_id", "attr", "value", "s1", "s2"]
    assert set(ds.stats["attr"]) == set(ds.attrs)


@pytest.mark.parametrize("ds_name", ["movie_ds", "pub_ds"])
def test_latent_groups_are_more_similar_within(ds_name, request):
    """The property FilterThenVerify exploits: users of the same latent
    group share clearly more preference tuples than users across groups."""
    ds = request.getfixturevalue(ds_name)
    vecs = {
        u: {d: tuple_frequencies([u], {u: ds.prefs[u][d]}) for d in ds.attrs}
        for u in ds.users
    }
    within, cross = [], []
    for a, b in itertools.combinations(ds.users, 2):
        s = mean_attr_similarity(vec_jaccard(vecs[a][d], vecs[b][d]) for d in ds.attrs)
        (within if ds.group_of[a] == ds.group_of[b] else cross).append(s)
    assert np.mean(within) > np.mean(cross) + 0.2


def test_movie_ratings_are_stars(movie_ds):
    assert movie_ds.ratings["rating"].between(0, 5).all()


def test_publication_stats_counts_nonnegative(pub_ds):
    assert (pub_ds.stats["s1"] >= 0).all()
    assert (pub_ds.stats["s2"] >= 0).all()


def test_domain_subset_generation():
    ds = movie.generate(
        n_users=6, n_groups=2, n_stream=30, domain_sizes={"genre": 6, "actor": 8}
    )
    assert ds.attrs == ("actor", "genre")


class TestDisplayBucket:
    @pytest.mark.parametrize(
        "inches,bucket",
        [
            (9.0, "9.9-under"),
            (9.9, "9.9-under"),
            (10.0, "10-12.9"),
            (12.9, "10-12.9"),
            (13.0, "13-15.9"),
            (15.9, "13-15.9"),
            (16.0, "16-18.9"),
            (18.9, "16-18.9"),
            (19.0, "19-up"),
            (21.0, "19-up"),
        ],
    )
    def test_buckets(self, inches, bucket):
        assert laptop.display_bucket(inches) == bucket

    def test_table_i_products_bucketed(self):
        assert laptop.PRODUCTS["o2"] == ("13-15.9", "Apple", "dual")
        assert laptop.PRODUCTS["o15"] == ("16-18.9", "Lenovo", "quad")
        assert laptop.PRODUCTS["o16"] == ("16-18.9", "Toshiba", "single")
