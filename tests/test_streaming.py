"""Structured Streaming pipeline: availableNow replay equals the driver
engines pair for pair, each pair stamped with the arrival that emitted it;
engine state survives a query restart via the checkpoint."""
import os

import pytest

from repro.core.common import make_exact_clusters
from repro.core.sliding import FTVSWEngine
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


def test_state_partitions_follow_the_clusters(spark, ds, tmp_path):
    """Three clusters keep three state partitions (fewer on fewer cores),
    whatever the session's shuffle partitions, which stay as they were."""
    before = spark.conf.get("spark.sql.shuffle.partitions")
    users = sorted(ds.users)
    three = make_exact_clusters([users[:3], users[3:6], users[6:]], ds.prefs, ds.attrs)
    got = run_once(spark, tmp_path, ds, three)
    assert got == driver_stamps(ds, three, None)
    state = os.listdir(tmp_path / "ckpt" / "state" / "0")
    assert len(set(state) - {"_metadata"}) == min(3, spark.sparkContext.defaultParallelism)
    assert spark.conf.get("spark.sql.shuffle.partitions") == before
