"""Distributed dissemination (applyInPandas over cluster partitions) must
equal the driver engines pair-for-pair, append-only and windowed."""
import pytest

from repro.core.sliding import FTVSWEngine
from repro.dataflow.dissemination import disseminate
from repro.datasets import movie, publication
from repro.experiments.harness import build_dendrogram, clusters_for, run_baseline


@pytest.fixture(scope="module")
def ds():
    return movie.generate(n_users=12, n_groups=3, n_stream=120)


@pytest.fixture(scope="module")
def pub_ds():
    return publication.generate(n_users=12, n_groups=3, n_stream=120)


@pytest.mark.parametrize("h", [0.7, 0.55])
def test_append_only_matches_driver(spark, ds, h):
    dend = build_dendrogram(ds)
    clusters = clusters_for(ds, dend, h, approximate=False)
    got = disseminate(
        spark, clusters, ds.prefs, ds.attrs, ds.domains, ds.stream
    ).toPandas()
    got_pairs = {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}
    assert got_pairs == run_baseline(ds).disseminated


@pytest.mark.parametrize("window", [30, 60])
def test_sliding_window_matches_driver(spark, ds, window):
    dend = build_dendrogram(ds)
    clusters = clusters_for(ds, dend, 0.6, approximate=False)
    got = disseminate(
        spark, clusters, ds.prefs, ds.attrs, ds.domains, ds.stream, window=window
    ).toPandas()
    got_pairs = {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}
    assert got_pairs == run_baseline(ds, window=window).disseminated


def test_publication_dataset_append_only(spark, pub_ds):
    dend = build_dendrogram(pub_ds)
    clusters = clusters_for(pub_ds, dend, 0.6, approximate=False)
    got = disseminate(
        spark, clusters, pub_ds.prefs, pub_ds.attrs, pub_ds.domains, pub_ds.stream
    ).toPandas()
    got_pairs = {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}
    assert got_pairs == run_baseline(pub_ds).disseminated


def test_approximate_clusters_lose_only_recall(spark, ds):
    dend = build_dendrogram(ds)
    clusters = clusters_for(ds, dend, 0.55, approximate=True)
    got = disseminate(
        spark, clusters, ds.prefs, ds.attrs, ds.domains, ds.stream
    ).toPandas()
    approx_pairs = {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}
    exact = run_baseline(ds).disseminated
    # Thm. 4 consequence: the approximate pipeline is near-precise; any
    # lost pairs are false negatives. Allow the documented tiny
    # false-positive band (objects promoted because their true dominator
    # was filtered), but require it to be marginal.
    fp = approx_pairs - exact
    assert len(fp) <= max(2, int(0.01 * len(approx_pairs)))
    assert len(approx_pairs & exact) >= int(0.8 * len(exact))


def test_ts_column_records_arrival_order(spark, ds):
    """Append-only and windowed: a pair carries the arrival step that
    emitted it, so a mend promotion carries the arrival whose expiry
    promoted it (the streaming query's stamp)."""
    dend = build_dendrogram(ds)
    clusters = clusters_for(ds, dend, 0.6, approximate=False)
    for window in (None, 30):
        got = disseminate(
            spark, clusters, ds.prefs, ds.attrs, ds.domains, ds.stream, window=window
        ).toPandas()
        got_ts = {(r.user_id, r.obj_id): r.ts for r in got.itertuples(index=False)}
        eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)
        want_ts = {}
        for t, (oid, vals) in enumerate(ds.stream, start=1):
            eng.insert(oid, vals)
            want_ts.update(dict.fromkeys(eng.disseminated, t))
        assert len(got) == len(got_ts) and got_ts == want_ts, window
