"""Structured Streaming pipeline: availableNow replay equals the driver
engines; engine state survives a query restart via the checkpoint."""
import pytest

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


def _collect_pairs(spark, out_dir):
    got = read_disseminations(spark, out_dir).toPandas()
    return {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}


def test_single_run_matches_driver(spark, ds, clusters, tmp_path):
    write_stream_files(ds.stream, str(tmp_path / "in"), files=1)
    writer = build_query(
        spark,
        clusters,
        ds.prefs,
        ds.attrs,
        ds.domains,
        input_dir=str(tmp_path / "in"),
        output_dir=str(tmp_path / "out"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    run_stream_to_completion(spark, writer)
    assert _collect_pairs(spark, str(tmp_path / "out")) == run_baseline(ds).disseminated


def test_sliding_window_stream_matches_driver(spark, ds, clusters, tmp_path):
    window = 25
    write_stream_files(ds.stream, str(tmp_path / "in"), files=1)
    writer = build_query(
        spark,
        clusters,
        ds.prefs,
        ds.attrs,
        ds.domains,
        input_dir=str(tmp_path / "in"),
        output_dir=str(tmp_path / "out"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        window=window,
    )
    run_stream_to_completion(spark, writer)
    got = read_disseminations(spark, str(tmp_path / "out")).toPandas()
    got_ts = {(r.user_id, r.obj_id): r.ts for r in got.itertuples(index=False)}
    assert set(got_ts) == run_baseline(ds, window=window).disseminated
    # Each pair is stamped with the arrival that emitted it, mend
    # promotions included.
    eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)
    want_ts = {}
    for t, (oid, vals) in enumerate(ds.stream, start=1):
        eng.insert(oid, vals)
        want_ts.update(dict.fromkeys(eng.disseminated, t))
    assert len(got) == len(got_ts) and got_ts == want_ts


def test_state_survives_restart(spark, ds, clusters, tmp_path):
    """First run sees only the first half of the stream; the second run
    (same checkpoint) sees the rest — the union must equal a single
    driver replay, which requires frontier state to persist."""
    in_dir, out_dir, ckpt = (str(tmp_path / p) for p in ("in", "out", "ckpt"))
    half = len(ds.stream) // 2
    rows1 = ds.stream[:half]
    write_stream_files(rows1, in_dir, files=1)

    def make_writer():
        return build_query(
            spark,
            clusters,
            ds.prefs,
            ds.attrs,
            ds.domains,
            input_dir=in_dir,
            output_dir=out_dir,
            checkpoint_dir=ckpt,
        )

    run_stream_to_completion(spark, make_writer())
    # Second half arrives later, with later timestamps (file named after).
    import json
    import os

    with open(os.path.join(in_dir, "batch-99999.json"), "w") as f:
        for t, (oid, vals) in enumerate(ds.stream[half:], start=half + 1):
            f.write(json.dumps({"obj_id": oid, "ts": t, "vals": list(vals)}) + "\n")
    run_stream_to_completion(spark, make_writer())
    assert _collect_pairs(spark, out_dir) == run_baseline(ds).disseminated
