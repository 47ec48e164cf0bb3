"""The engine-only workloads: append-exact and window-approx.

Both replay seeded streams through a fresh driver engine per pass, closed
loop with one caller. A run draws several sub-streams and replays each of
them ``ROUNDS`` times, the rounds interleaved. Each arrival's time is
normalised by the host speed measured around its slice of 50 arrivals,
and the median of its rounds is its reported time: a spike the reference
units did not see (an interrupt, a stolen time slice) rarely hits the
same arrival twice, and a drift they tracked imperfectly in one round does
not reach the figures.
"""
from __future__ import annotations

import pickle
import resource
import statistics
from dataclasses import dataclass

import numpy as np

from steadybench import oracles
from steadybench.engines import make_ftv, replay
from steadybench.hostclock import HostClock, NOMINAL_REF_S
from steadybench.inputs import build_population, draw_stream
from steadybench.result import Result, batch_percentiles
from steadybench.tracer import Tracer

SLICE = 50  #: arrivals between reference units
BATCHES_PER_PART = 20  #: a batch is this share of a sub-stream's consecutive arrivals
SETUP_REPS = 3
ROUNDS = 3
PARTS = 2  #: sub-streams per run
#: arrival_tail_us percentile: 70 of a run's 1,400 window-approx arrivals lie
#: beyond p95; p99 has 14, and across seed sets its spread ranged 0.06-0.12
TAIL_PCT = 95
WARMUP_PART, WARMUP_OBJECTS = 1000, 100


@dataclass(frozen=True)
class DriverSpec:
    window: int | None
    approximate: bool
    objects: int  #: objects per sub-stream
    check_objects: int = 0  #: window only: prefix replayed by the exact engine ...
    check_window: int = 0  #: ... with this window, so expiry and mend fire early


SPECS = {
    "append-exact": DriverSpec(None, False, objects=600),
    "window-approx": DriverSpec(400, True, objects=700, check_objects=300, check_window=100),
}


def _setup(spec: DriverSpec, seed: int, clock: HostClock):
    """Build everything a pass needs, ``SETUP_REPS`` times; median time."""
    warmup = None
    totals, phases_runs = [], []
    for _ in range(SETUP_REPS):
        pop, phases = build_population(clock)
        clusters = pop.approx_clusters if spec.approximate else pop.exact_clusters
        warmup = warmup or draw_stream(pop, seed, WARMUP_PART, WARMUP_OBJECTS)

        def build_and_warm():
            engine = make_ftv(pop, clusters, spec.window)
            for oid, vals in warmup:
                engine.insert(oid, vals)

        _, phases["engine_build"] = clock.timed(build_and_warm)
        totals.append(sum(phases.values()))
        phases_runs.append(phases)
    phases = {k: statistics.median(p[k] for p in phases_runs) for k in phases_runs[0]}
    return pop, clusters, statistics.median(totals), phases


def _mismatches(got: list, want: list) -> int:
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def run(workload: str, seed: int, trace: bool = False) -> Result:
    spec = SPECS[workload]
    clock = HostClock()
    pop, clusters, setup_s, phases = _setup(spec, seed, clock)
    streams = [draw_stream(pop, seed, k, spec.objects) for k in range(PARTS)]

    passes: list[list] = [[] for _ in streams]  # per sub-stream: (Replay, comparisons)
    state_bytes, dis_sizes = [], []
    for r in range(ROUNDS):
        for k, stream in enumerate(streams):
            engine = make_ftv(pop, clusters, spec.window)
            passes[k].append((replay(engine, stream, clock, SLICE), engine.counter.total))
            if r == 0:
                state_bytes.append(len(pickle.dumps(engine)))
                dis_sizes.append(len(getattr(engine, "disseminated", ())))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    res = Result(workload)
    res.attempted = ROUNDS * len(streams) * spec.objects
    res.failed = sum(rep.failed for part in passes for rep, _ in part)
    # Rounds of one sub-stream must agree exactly; a pass that does not
    # counts all its arrivals as failed.
    for part in passes:
        first_rep, first_cmp = part[0]
        for rep, cmp in part[1:]:
            if cmp != first_cmp:
                res.failed += len(rep.emitted)
            else:
                res.failed += _mismatches(rep.emitted, first_rep.emitted)

    exact_pairs, engine_pairs = set(), set()
    for k, (stream, part) in enumerate(zip(streams, passes)):
        engine_pairs |= oracles.pairs(part[0][0].emitted)
        if spec.window is None:
            want = oracles.append_emissions(pop.attrs, pop.domains, pop.prefs, stream)
            res.failed += _mismatches(part[0][0].emitted, want)
        else:
            want = oracles.window_emissions(pop.attrs, pop.domains, pop.prefs, stream, spec.window)
            if k == 0 and spec.check_objects:
                # The approximate output is scored, not checked; the window
                # path itself is checked by the exact engine on a prefix.
                prefix = stream[: spec.check_objects]
                exact = make_ftv(pop, pop.exact_clusters, spec.check_window)
                got = replay(exact, prefix, clock, SLICE)
                check = oracles.window_emissions(
                    pop.attrs, pop.domains, pop.prefs, prefix, spec.check_window
                )
                res.attempted += len(prefix)
                res.failed += got.failed + _mismatches(got.emitted, check)
        exact_pairs |= oracles.pairs(want)

    per_part = [np.median([rep.norm_ns for rep, _ in part], axis=0) for part in passes]
    per_arrival = np.concatenate(per_part)
    raw_total = sum(rep.raw_ns.sum() for part in passes for rep, _ in part)
    n_objects = len(per_arrival)
    size = spec.objects // BATCHES_PER_PART
    batch_ms = [t[i : i + size].sum() / 1e6 for t in per_part for i in range(0, len(t), size)]
    tp = len(engine_pairs & exact_pairs)
    res.metrics.update(
        {
            "objects_per_s": n_objects / (per_arrival.sum() / 1e9),
            "arrival_p50_us": float(np.percentile(per_arrival, 50)) / 1e3,
            "arrival_tail_us": float(np.percentile(per_arrival, TAIL_PCT)) / 1e3,
            **batch_percentiles(batch_ms),
            "comparisons_per_object": sum(part[0][1] for part in passes) / n_objects,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "precision": tp / len(engine_pairs) if engine_pairs else 1.0,
            "recall": tp / len(exact_pairs) if exact_pairs else 1.0,
            "state_bytes_end": statistics.mean(state_bytes),
        }
    )
    res.layer.update(
        {
            "setup.generate_s": phases["generate"],
            "setup.hac_s": phases["hac"],
            "setup.relations_s": phases["relations"],
            "setup.engine_build_s": phases["engine_build"],
            "setup.spark_start_s": 0.0,
            "sliding.disseminated_size": statistics.mean(dis_sizes),
            "host.ref_unit_ms": statistics.median(clock.refs) * 1e3,
            "host.speed_factor": clock.speed_factor(),
            "host.raw_objects_per_s": ROUNDS * n_objects / (raw_total / 1e9),
        }
    )
    if trace:
        layer, traced, misattributed = _traced_pass(
            spec, pop, clusters, streams, clock, res.metrics["objects_per_s"], res.notes)
        res.layer.update(layer)
        res.attempted += traced
        res.failed += misattributed
    res.notes.append(
        f"{workload}: {len(streams)} sub-streams x {spec.objects} objects x {ROUNDS} rounds, "
        f"{len(batch_ms)} batches of {size}, nominal ref {NOMINAL_REF_S * 1e3:.2f} ms"
    )
    return res


def _traced_pass(spec, pop, clusters, streams, clock, untraced_objects_per_s, notes):
    """One more pass over every sub-stream with the tracer on.

    Returns the layer metrics, the pass's arrivals, and how many of them
    failed: all of them when the traced comparisons do not add up.
    """
    tracer = Tracer()
    first_ref = len(clock.refs)
    norm_ns, comparisons = 0.0, 0
    with tracer:
        for stream in streams:
            engine = make_ftv(pop, clusters, spec.window)
            tracer.register(engine)
            norm_ns += replay(engine, stream, clock, SLICE).norm_ns.sum()
            comparisons += engine.counter.total
    speed = statistics.median(clock.refs[first_ref:]) / NOMINAL_REF_S
    out = tracer.metrics(speed)
    traced_objects_per_s = len(streams) * spec.objects / (norm_ns / 1e9)
    out["trace.overhead_pct"] = (untraced_objects_per_s / traced_objects_per_s - 1) * 100
    for k in ("streaming.trigger_ms", "streaming.add_batch_ms", "streaming.commit_ms",
              "streaming.state_pickle_ms", "streaming.state_unpickle_ms",
              "streaming.state_bytes_per_cluster", "streaming.engine_batch_ms"):
        out[k] = 0.0  # no Spark in this workload
    arrivals = len(streams) * spec.objects
    return out, arrivals, arrivals if tracer.misattributed(comparisons, notes) else 0
