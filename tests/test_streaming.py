"""Structured Streaming pipeline: availableNow replay equals the driver
engines pair for pair, each pair stamped with the arrival that emitted it;
engine state survives a query restart via the checkpoint, and a restart
under other clusters fails."""
import importlib
import os
import pickle
import sys
import zipfile
import zipimport
from collections import Counter

import pytest

from repro.core.common import Cluster, cluster_common_relation, make_exact_clusters
from repro.core.sliding import FTVSWEngine
from repro.dataflow import dissemination
from repro.dataflow.streaming import (
    build_query,
    read_disseminations,
    run_stream_to_completion,
    write_stream_files,
)
from repro.datasets import movie
from repro.experiments.harness import build_dendrogram, clusters_for, run_baseline


@pytest.fixture(scope="module")
def ds():
    return movie.generate(n_users=10, n_groups=2, n_stream=80)


@pytest.fixture(scope="module")
def clusters(ds):
    return clusters_for(ds, build_dendrogram(ds), 0.6, approximate=False)


def _writer(spark, run_dir, ds, clusters, window=None):
    return build_query(
        spark,
        clusters,
        ds.prefs,
        ds.attrs,
        ds.domains,
        input_dir=str(run_dir / "in"),
        output_dir=str(run_dir / "out"),
        checkpoint_dir=str(run_dir / "ckpt"),
        window=window,
    )


def _stamped_pairs(spark, run_dir):
    """``{(user, obj): ts}`` of the query's output; fails on a repeated pair."""
    got = read_disseminations(spark, str(run_dir / "out")).toPandas()
    stamped = {(r.user_id, r.obj_id): r.ts for r in got.itertuples(index=False)}
    assert len(stamped) == len(got)
    return stamped


def run_once(spark, run_dir, ds, clusters, window=None):
    """Stream ``ds`` through one query as a single file under ``run_dir``;
    returns its stamped pairs."""
    write_stream_files(ds.stream, str(run_dir / "in"), files=1)
    run_stream_to_completion(spark, _writer(spark, run_dir, ds, clusters, window))
    return _stamped_pairs(spark, run_dir)


def driver_stamps(ds, clusters, window):
    """Per-step driver replay: each pair with the arrival that emitted it,
    so a mend promotion carries the arrival whose expiry promoted it."""
    eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)
    want = {}
    for t, (oid, vals) in enumerate(ds.stream, start=1):
        eng.insert(oid, vals)
        want.update(dict.fromkeys(eng.disseminated, t))
    return want


def test_single_run_matches_driver(spark, ds, clusters, tmp_path):
    got = run_once(spark, tmp_path, ds, clusters)
    assert set(got) == run_baseline(ds).disseminated
    assert got == driver_stamps(ds, clusters, None)


def test_sliding_window_stream_matches_driver(spark, ds, clusters, tmp_path):
    window = 25
    got = run_once(spark, tmp_path, ds, clusters, window)
    assert set(got) == run_baseline(ds, window=window).disseminated
    assert got == driver_stamps(ds, clusters, window)


def test_state_survives_restart(spark, ds, clusters, tmp_path):
    """First run sees only the first half of the stream; the second run
    (same checkpoint) sees the rest — the union must equal a single
    driver replay, which requires frontier state to persist."""
    staging, in_dir = tmp_path / "staging", tmp_path / "in"
    first, second = write_stream_files(ds.stream, str(staging), files=2)
    os.makedirs(in_dir)
    for path in (first, second):
        # The second file, with the later half's ts, arrives only after
        # the first run has stopped.
        os.replace(path, in_dir / os.path.basename(path))
        run_stream_to_completion(spark, _writer(spark, tmp_path, ds, clusters))
    assert set(_stamped_pairs(spark, tmp_path)) == run_baseline(ds).disseminated


def test_state_survives_restart_mid_window(spark, ds, clusters, tmp_path):
    """W = 25 and the restart after arrival 10, inside the first window:
    buffers saved before it must mend frontiers after it."""
    window = 25
    staging, in_dir = tmp_path / "staging", tmp_path / "in"
    paths = write_stream_files(ds.stream, str(staging), files=8)  # 10 objects each
    os.makedirs(in_dir)
    for part in (paths[:1], paths[1:]):
        for path in part:
            os.replace(path, in_dir / os.path.basename(path))
        run_stream_to_completion(spark, _writer(spark, tmp_path, ds, clusters, window))
    got = _stamped_pairs(spark, tmp_path)
    assert got == driver_stamps(ds, clusters, window)
    arrival = {oid: t for t, (oid, _) in enumerate(ds.stream, start=1)}
    # A mend promotion after the restart of an object that arrived before it.
    assert any(ts > 10 >= arrival[obj] for (_, obj), ts in got.items())


def test_restart_under_other_clusters_fails(spark, ds, clusters, tmp_path):
    """The same cluster ids with other members: the stored state was saved
    under another configuration, and the query says so."""
    a, b = clusters[0].members, clusters[1].members
    moved = [(a[1:] + b[:1]), (b[1:] + a[:1])]
    other = [Cluster(cl.cluster_id, members, cluster_common_relation(members, ds.prefs, ds.attrs))
             for cl, members in zip(clusters, moved)]
    staging, in_dir = tmp_path / "staging", tmp_path / "in"
    first, second = write_stream_files(ds.stream, str(staging), files=2)
    os.makedirs(in_dir)
    os.replace(first, in_dir / os.path.basename(first))
    run_stream_to_completion(spark, _writer(spark, tmp_path, ds, clusters))
    os.replace(second, in_dir / os.path.basename(second))
    with pytest.raises(Exception, match="digest mismatch"):
        run_stream_to_completion(spark, _writer(spark, tmp_path, ds, other))


def test_worker_builds_profiles_once_per_payload(ds, clusters, monkeypatch):
    """New and restored engines of one payload share the profiles of one
    cached engine; another payload (here another window) gets its own."""
    built = []
    dissemination._configuration.cache_clear()
    monkeypatch.setattr(dissemination, "FTVSWEngine",
                        lambda *a, **kw: built.append(a) or FTVSWEngine(*a, **kw))
    payload = dissemination._payload(clusters, ds.prefs, ds.attrs, ds.domains, 25)
    engines = [dissemination.make_engine(payload) for _ in range(2)]
    for oid, vals in ds.stream[:30]:
        engines[0].insert(oid, vals)
    engines.append(dissemination.attach(pickle.loads(pickle.dumps(engines[0])), payload))
    assert len(built) == 1
    profiles = [[fr.profile for fr in e.user_frontiers.values()] for e in engines]
    assert all(p is q for other in profiles[1:] for p, q in zip(profiles[0], other))
    for cl in clusters:
        assert engines[2].frontier_of(cl.members[0]) == engines[0].frontier_of(cl.members[0])
    dissemination.make_engine(
        dissemination._payload(clusters, ds.prefs, ds.attrs, ds.domains, 30))
    assert len(built) == 2


def test_query_clusters_never_evict_each_other(ds, monkeypatch):
    """One engine serves every cluster of a query, so even with more
    clusters than the payload cache holds the worker builds it once."""
    built = []
    dissemination._configuration.cache_clear()
    monkeypatch.setattr(dissemination, "FTVSWEngine",
                        lambda *a, **kw: built.append(a) or FTVSWEngine(*a, **kw))
    users = sorted(ds.users)
    n = dissemination._configuration.cache_info().maxsize + 6
    prefs = {f"u{i}": ds.prefs[users[i % len(users)]] for i in range(n)}
    singles = make_exact_clusters([[c] for c in prefs], prefs, ds.attrs)
    payload = dissemination._payload(singles, prefs, ds.attrs, ds.domains, 25)
    engine = dissemination.make_engine(payload)
    for _ in range(2):
        engine = dissemination.attach(pickle.loads(pickle.dumps(engine)), payload)
    assert len(built) == 1
    _, clusters, *_ = built[0]
    assert Counter(cl.cluster_id for cl in clusters) == Counter(range(n))


def test_dropped_zip_importers_read_no_archive(tmp_path, monkeypatch):
    """PySpark's worker calls ``importlib.invalidate_caches()`` before each
    task, which re-reads every zip archive a cached ``zipimporter`` serves;
    after ``drop_zip_importers`` it reads none, and the zip still imports."""
    archive = tmp_path / "zpkg.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zpkg/__init__.py", "")
        zf.writestr("zpkg/a.py", "A = 1\n")
        zf.writestr("zpkg/b.py", "B = 2\n")
    reads = []
    read_directory = zipimport._read_directory
    monkeypatch.setattr(zipimport, "_read_directory",
                        lambda path: reads.append(path) or read_directory(path))
    monkeypatch.setattr(sys, "path_importer_cache", dict(sys.path_importer_cache))
    monkeypatch.syspath_prepend(str(archive))
    try:
        import zpkg.a  # noqa: F401

        reads.clear()
        importlib.invalidate_caches()
        assert str(archive) in reads
        dissemination.drop_zip_importers()
        reads.clear()
        importlib.invalidate_caches()
        assert reads == []
        import zpkg.b

        assert zpkg.b.B == 2 and reads == []
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "zpkg"]:
            del sys.modules[name]


def test_state_partitions_follow_the_clusters(spark, ds, tmp_path):
    """Three clusters share one state partition whatever the session's
    shuffle partitions, which stay as they were."""
    before = spark.conf.get("spark.sql.shuffle.partitions")
    users = sorted(ds.users)
    three = make_exact_clusters([users[:3], users[3:6], users[6:]], ds.prefs, ds.attrs)
    got = run_once(spark, tmp_path, ds, three)
    assert got == driver_stamps(ds, three, None)
    state = os.listdir(tmp_path / "ckpt" / "state" / "0")
    assert len(set(state) - {"_metadata"}) == 1
    assert spark.conf.get("spark.sql.shuffle.partitions") == before


def test_cluster_id_column_names_the_users_cluster(spark, ds, clusters, tmp_path):
    """Every output row's ``cluster_id`` is the cluster that holds its user."""
    run_once(spark, tmp_path, ds, clusters, 25)
    got = read_disseminations(spark, str(tmp_path / "out")).toPandas()
    owner = {str(c): str(cl.cluster_id) for cl in clusters for c in cl.members}
    assert len(got) and all(owner[u] == cid for u, cid in zip(got.user_id, got.cluster_id))
    assert got.cluster_id.nunique() == len(clusters) > 1


def test_query_session_commits_through_the_filesystem_manager(spark, ds, tmp_path):
    """The query's own session uses the filesystem-based checkpoint file
    manager, the caller's session keeps its setting, and a query over
    three clusters keeps a single state row."""
    key = "spark.sql.streaming.checkpointFileManagerClass"
    before = spark.conf.get(key, None)
    users = sorted(ds.users)
    three = make_exact_clusters([users[:3], users[3:6], users[6:]], ds.prefs, ds.attrs)
    write_stream_files(ds.stream, str(tmp_path / "in"), files=2)
    writer = _writer(spark, tmp_path, ds, three, 25)
    assert writer._spark.conf.get(key) == (
        "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager")
    run_stream_to_completion(spark, writer)
    assert spark.conf.get(key, None) == before
    assert _stamped_pairs(spark, tmp_path) == driver_stamps(ds, three, 25)
    state = spark.read.format("statestore").load(str(tmp_path / "ckpt")).collect()
    assert len(state) == 1
