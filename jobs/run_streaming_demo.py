"""End-to-end distributed pipeline (spark-submit entrypoint).

1. Generate the synthetic movie dataset (ratings + catalog + stream).
2. Derive every user's preference tuples with the Spark SQL pipeline
   (ratings ⋈ objects → stats → product-order pairs) and report their
   count. The tuples are not fed on: HAC and the query below use the
   generator's pandas-derived ``ds.prefs``, which the Spark derivation
   equals (``tests/test_dataflow_sql.py``).
3. Run HAC over the users' Jaccard similarities on the driver; cut the
   dendrogram at --h to obtain the user clusters.
4. Build approximate common preference relations per cluster (Alg. 3).
5. Stream the object micro-batches through the Structured Streaming
   dissemination query (applyInPandasWithState, one engine over all
   clusters in one group and one state row), and report the median
   milliseconds of its micro-batches' trigger, addBatch, walCommit and
   commitOffsets phases from the query progress.
6. Report dissemination counts and the efficacy vs the exact result.

Usage: spark-submit jobs/run_streaming_demo.py [--users N] [--stream N]
       (or plain `python jobs/run_streaming_demo.py`)
"""
import argparse
import shutil
import statistics
import sys
import tempfile

from pyspark.sql import SparkSession


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, default=24)
    ap.add_argument("--groups", type=int, default=4)
    ap.add_argument("--stream", type=int, default=400)
    ap.add_argument("--h", type=float, default=0.6)
    ap.add_argument("--window", type=int, default=None)
    ap.add_argument("--batches", type=int, default=4)
    args = ap.parse_args(argv)

    spark = (
        SparkSession.builder.appName("repro-streaming-demo")
        .master("local[*]")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    try:
        return run(spark, args)
    finally:
        spark.stop()


def run(spark, args) -> int:
    from repro.core.hac import cluster_users
    from repro.core.metrics import efficacy
    from repro.dataflow.prefs_sql import derive_prefs_spark
    from repro.dataflow.streaming import (
        build_query,
        read_disseminations,
        run_stream_to_completion,
        write_stream_files,
    )
    from repro.datasets import movie
    from repro.experiments.harness import clusters_for, run_baseline

    ds = movie.generate(
        n_users=args.users, n_groups=args.groups, n_stream=args.stream
    )
    prefs_df = derive_prefs_spark(
        spark,
        spark.createDataFrame(ds.ratings),
        spark.createDataFrame(ds.hist_objects),
        ds.attrs,
    ).cache()
    print(f"[demo] derived {prefs_df.count()} preference tuples on Spark")
    dend = cluster_users(ds.attrs, ds.prefs, measure="jaccard")
    clusters = clusters_for(ds, dend, args.h, approximate=True)
    print(f"[demo] h={args.h}: {len(clusters)} clusters, sizes "
          f"{[len(c.members) for c in clusters]}")

    workdir = tempfile.mkdtemp(prefix="repro-stream-")
    try:
        write_stream_files(ds.stream, f"{workdir}/in", files=args.batches)
        writer = build_query(
            spark,
            clusters,
            ds.prefs,
            ds.attrs,
            ds.domains,
            input_dir=f"{workdir}/in",
            output_dir=f"{workdir}/out",
            checkpoint_dir=f"{workdir}/ckpt",
            window=args.window,
            max_files_per_trigger=1,
        )
        progress = run_stream_to_completion(spark, writer)
        got = read_disseminations(spark, f"{workdir}/out").toPandas()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = ("triggerExecution", "addBatch", "walCommit", "commitOffsets")
    medians = [statistics.median(p["durationMs"].get(k, 0) for p in progress) for k in phases]
    print(f"[demo] median ms over {len(progress)} micro-batches: "
          + ", ".join(f"{k} {ms:.0f}" for k, ms in zip(phases, medians)))
    approx_pairs = {(r.user_id, r.obj_id) for r in got.itertuples(index=False)}
    exact_pairs = run_baseline(ds, window=args.window).disseminated
    e = efficacy(approx_pairs, exact_pairs)
    print(
        f"[demo] disseminated {len(approx_pairs)} (user, object) pairs over "
        f"{args.stream} objects x {args.users} users; precision "
        f"{100 * e.precision:.2f}% recall {100 * e.recall:.2f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
