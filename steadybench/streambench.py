"""The stream-window workload: the window-approx engine inside Spark.

Closed loop: write one file of ``FILE_OBJECTS`` objects, move it into the
query's input directory by atomic rename, call ``processAllAvailable()``,
then send the next file. The window engines count arrivals, so files must
be taken one per micro-batch and in send order; the run checks both from
the query progress and fails otherwise. Each batch is timed from rename
to return and normalised by the reference units run between files.

A run always sends the same number of files: per-batch cost grows along
the stream as the engine state (and its unbounded ``disseminated`` set)
grows, so "as many files as fit" would measure a different stream on a
faster host.
"""
from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import time

import numpy as np

from steadybench import oracles, sparkenv, sparktrace
from steadybench.driverbench import SETUP_REPS
from steadybench.engines import make_ftv, replay
from steadybench.hostclock import HostClock, NOMINAL_REF_S
from steadybench.inputs import build_population, draw_stream
from steadybench.result import Result, batch_percentiles
from steadybench.tracer import Tracer

WINDOW = 400
FILE_OBJECTS = 30
WARMUP_FILES = 2  #: sent during set-up, so JIT and query planning are paid there
FILES = 40  #: measured files
TRACE_FILES = 20  #: measured files of the traced query, the first 20 of the untraced one


def _population_setup(clock: HostClock):
    runs = [build_population(clock) for _ in range(SETUP_REPS)]
    phases = {k: statistics.median(ph[k] for _, ph in runs) for k in runs[0][1]}
    return runs[-1][0], statistics.median(sum(ph.values()) for _, ph in runs), phases


class _Feeder:
    """Sends files one at a time and checks each became exactly one batch."""

    def __init__(self, query, dirs: dict[str, str]):
        self.query = query
        self.dirs = dirs
        self.sent = 0
        self.bad_batches = 0

    def send(self, rows: list[dict]) -> float:
        name = f"part-{self.sent:05d}.json"
        staging = os.path.join(self.dirs["staging"], name)
        with open(staging, "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in rows)
        t0 = time.perf_counter()
        os.rename(staging, os.path.join(self.dirs["input"], name))
        self.query.processAllAvailable()
        dt = time.perf_counter() - t0
        progress = self.query.lastProgress or {}
        if progress.get("batchId") != self.sent or progress.get("numInputRows") != len(rows):
            self.bad_batches += 1
        self.sent += 1
        return dt


def _rows(stream, start_ts: int) -> list[dict]:
    return [
        {"obj_id": oid, "ts": start_ts + i, "vals": list(vals)}
        for i, (oid, vals) in enumerate(stream)
    ]


def run(seed: int, run_dir: str, trace: bool = False) -> Result:
    clock = HostClock()
    pop, pop_setup_s, phases = _population_setup(clock)
    n_files = WARMUP_FILES + FILES
    stream = draw_stream(pop, seed, 0, n_files * FILE_OBJECTS)
    files = [stream[i : i + FILE_OBJECTS] for i in range(0, len(stream), FILE_OBJECTS)]
    dirs = {k: os.path.join(run_dir, k) for k in ("input", "staging", "output", "checkpoint")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    clusters = pop.approx_clusters

    trace_dir = os.path.join(run_dir, "worker-trace")
    if trace:  # the workers inherit it from the JVM, so set it first
        os.makedirs(trace_dir, exist_ok=True)
        os.environ[sparktrace.TRACE_DIR_ENV] = trace_dir
    # One task wave: clusters run in parallel, at most one per core.
    spark, spark_start_s = clock.timed(
        lambda: sparkenv.start(run_dir, shuffle_partitions=min(len(clusters), sparkenv.cores()))
    )
    res = Result("stream-window")
    try:
        feeder = _Feeder(_start_query(spark, pop, dirs), dirs)
        query = feeder.query

        def warm_up():
            for i in range(WARMUP_FILES):
                feeder.send(_rows(files[i], 1 + i * FILE_OBJECTS))

        _, warmup_s = clock.timed(warm_up)
        raw_ms, norm_ms, progress = _measure(feeder, files, clock, n_files)
        pids = sparkenv.descendants()
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + sparkenv.peak_rss_mb(pids)
        )
        query.stop()
        state = [
            r.value.groupState.engine
            for r in spark.read.format("statestore").load(dirs["checkpoint"]).collect()
        ]
        out_rows = spark.read.parquet(dirs["output"]).collect()
        if trace:
            traced = _traced_query(spark, pop, files, clock, run_dir, trace_dir)
            res.failed += traced.pop("bad_batches") * FILE_OBJECTS
            traced_ms = traced.pop("norm_ms")
            traced["trace.overhead_pct"] = (sum(traced_ms) / sum(norm_ms[:TRACE_FILES]) - 1) * 100
            res.layer.update(traced)
    finally:
        sparkenv.stop(spark)
        os.environ.pop(sparktrace.TRACE_DIR_ENV, None)

    # Correctness: the Spark output must equal the same engine replayed in
    # the driver, arrival by arrival, mend promotions included.
    engines = [pickle.loads(b) for b in state]
    # On this workload the core layers are traced in that driver replay.
    reference = make_ftv(pop, clusters, WINDOW)
    tracer = Tracer()
    if trace:
        tracer.register(reference)
        with tracer:
            ref_run = replay(reference, stream, clock, len(stream))
        res.layer.update(tracer.metrics(clock.speed_factor()))
        if tracer.misattributed(reference.counter.total, res.notes):
            res.failed += len(stream)
    else:
        ref_run = replay(reference, stream, clock, len(stream))
    got: list[set] = [set() for _ in stream]
    for r in out_rows:
        got[int(r.ts) - 1].add((r.user_id, r.obj_id))
    res.attempted = len(stream)
    res.failed += ref_run.failed + sum(a != b for a, b in zip(got, ref_run.emitted))
    res.failed += feeder.bad_batches * FILE_OBJECTS
    comparisons = sum(e.counter.total for e in engines)
    if comparisons != reference.counter.total:
        res.failed += len(stream)
    exact = oracles.pairs(
        oracles.window_emissions(pop.attrs, pop.domains, pop.prefs, stream, WINDOW)
    )
    emitted = oracles.pairs(got)
    tp = len(emitted & exact)

    # Every arrival of a file shares the file's latency, so the batches are
    # the independent samples: 40 of them support p75, not p99.
    norm = np.asarray(norm_ms)
    res.metrics.update(
        {
            "objects_per_s": FILES * FILE_OBJECTS / (norm.sum() / 1e3),
            "arrival_p50_us": float(np.percentile(norm, 50)) * 1e3,
            "arrival_tail_us": float(np.percentile(norm, 75)) * 1e3,
            **batch_percentiles(norm),
            "comparisons_per_object": comparisons / len(stream),
            "setup_s": pop_setup_s + spark_start_s + warmup_s,
            "peak_rss_mb": peak_rss_mb,
            "precision": tp / len(emitted) if emitted else 1.0,
            "recall": tp / len(exact) if exact else 1.0,
            "state_bytes_end": float(sum(len(b) for b in state)),
        }
    )

    def median_progress(key):  # normalised by the speed factor around each batch
        return statistics.median(
            p["durationMs"].get(key, 0) * norm / raw
            for p, raw, norm in zip(progress, raw_ms, norm_ms)
        )

    res.layer.update(
        {
            "setup.generate_s": phases["generate"],
            "setup.hac_s": phases["hac"],
            "setup.relations_s": phases["relations"],
            "setup.engine_build_s": 0.0,
            "setup.spark_start_s": spark_start_s,
            "streaming.trigger_ms": median_progress("triggerExecution"),
            "streaming.add_batch_ms": median_progress("addBatch"),
            "streaming.commit_ms": median_progress("commitOffsets"),
            "streaming.state_bytes_per_cluster": statistics.mean(len(b) for b in state),
            "sliding.disseminated_size": float(sum(len(e.disseminated) for e in engines)),
            "host.ref_unit_ms": statistics.median(clock.refs) * 1e3,
            "host.speed_factor": clock.speed_factor(),
            "host.raw_objects_per_s": FILES * FILE_OBJECTS / (sum(raw_ms) / 1e3),
        }
    )
    res.notes.append(
        f"stream-window: {WARMUP_FILES} warm-up + {FILES} measured files of {FILE_OBJECTS} "
        f"objects, local[{sparkenv.cores()}], {len(clusters)} clusters, W = {WINDOW}"
    )
    return res


def _start_query(spark, pop, dirs):
    from repro.dataflow.streaming import build_query

    return build_query(
        spark, pop.approx_clusters, pop.prefs, pop.attrs, pop.domains,
        input_dir=dirs["input"], output_dir=dirs["output"],
        checkpoint_dir=dirs["checkpoint"], window=WINDOW,
    ).start()


def _measure(feeder: _Feeder, files, clock: HostClock, stop: int):
    """Send files ``feeder.sent .. stop-1``; raw and normalised batch ms."""
    raw_ms, norm_ms, progress = [], [], []
    before = clock.tick()
    for i in range(feeder.sent, stop):
        dt = feeder.send(_rows(files[i], 1 + i * FILE_OBJECTS))
        after = clock.tick()
        raw_ms.append(dt * 1e3)
        norm_ms.append(dt * 1e3 / clock.factor(before, after))
        progress.append(feeder.query.lastProgress)
        before = after
    return raw_ms, norm_ms, progress


def _traced_query(spark, pop, files, clock, run_dir, trace_dir) -> dict:
    """A fresh query over the first files, its workers tracing state handling."""
    from repro.dataflow import streaming

    dirs = {k: os.path.join(run_dir, "traced-" + k) for k in ("input", "staging", "output", "checkpoint")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    hooks = {"pickle": sparktrace, "make_engine": sparktrace.make_engine}
    saved = {k: getattr(streaming, k, None) for k in hooks}
    out: dict = {}
    if None in saved.values():  # the query no longer goes through these names
        out.update(dict.fromkeys(("streaming.state_pickle_ms", "streaming.state_unpickle_ms",
                                  "streaming.engine_batch_ms")))
        hooks = {}
    for k, v in hooks.items():
        setattr(streaming, k, v)
    try:
        feeder = _Feeder(_start_query(spark, pop, dirs), dirs)
        for i in range(WARMUP_FILES):
            feeder.send(_rows(files[i], 1 + i * FILE_OBJECTS))
        for name in os.listdir(trace_dir):  # keep only the measured batches
            os.remove(os.path.join(trace_dir, name))
        first_ref = len(clock.refs)
        _, norm_ms, _ = _measure(feeder, files, clock, WARMUP_FILES + TRACE_FILES)
        speed = statistics.median(clock.refs[first_ref:]) / NOMINAL_REF_S
        feeder.query.stop()
    finally:
        for k in hooks:
            setattr(streaming, k, saved[k])
    out.update({"norm_ms": norm_ms, "bad_batches": feeder.bad_batches})
    if hooks:
        records = sparktrace.read_records(trace_dir)
        slowest: dict[int, float] = {}
        for r in records:
            if r["arrivals"] is not None:
                b = r["arrivals"]
                slowest[b] = max(slowest.get(b, 0.0), r["engine_ms"])
        # The workers time their own work; normalise by the segment's speed.
        out["streaming.state_pickle_ms"] = statistics.median(r["pickle_ms"] for r in records) / speed
        out["streaming.state_unpickle_ms"] = (
            statistics.median(r["unpickle_ms"] for r in records) / speed)
        out["streaming.engine_batch_ms"] = (
            statistics.median(slowest.values()) / speed if slowest else None)
    return out
