"""The benchmark (``steadybench/``) wraps program functions that it looks
up by name; a rename would silently turn its per-layer metrics absent.
These tests pin every name it patches, and that the tracer still
attributes every comparison of a run to a layer."""
import json

import pytest

from repro.core.sliding import FTVSWEngine
from repro.dataflow import dissemination, streaming
from repro.experiments.harness import clusters_for
from steadybench import tracer
from tests.test_sliding import counted_movie  # noqa: F401  (fixture)


@pytest.mark.parametrize(
    "key", sorted(tracer.ENTRY_POINTS), ids=lambda key: f"{key[1]}.{key[2]}"
)
def test_tracer_entry_point_resolves(key):
    owner, fn = tracer._resolve(*key)
    assert owner is not None and callable(fn), key


def test_stream_trace_hooks_exist():
    # The Spark tracer swaps these module globals, which the query's
    # per-cluster function looks up when it runs in a worker.
    assert callable(streaming.pickle.loads) and callable(streaming.pickle.dumps)
    assert callable(streaming.make_engine)
    assert callable(dissemination.make_engine)
    (process,) = (
        c for c in streaming.build_query.__code__.co_consts
        if getattr(c, "co_name", None) == "process"
    )
    assert {"pickle", "make_engine"} <= set(process.co_names)


@pytest.mark.parametrize("window", [None, 40])
def test_tracer_attributes_every_comparison(counted_movie, window):  # noqa: F811
    # A traced benchmark run fails when filter, verify, buffer and mend
    # comparisons do not add up, and reports a layer metric it cannot
    # find as absent; both must hold on the program as it stands.
    ds, dend = counted_movie
    eng = FTVSWEngine(ds.attrs, clusters_for(ds, dend, 0.6, approximate=False),
                      ds.prefs, ds.domains, window=window)
    with tracer.Tracer() as tr:
        tr.register(eng)
        for oid, vals in ds.stream:
            eng.insert(oid, vals)
    metrics = tr.metrics(1.0)
    notes = []
    assert tr.comparisons() == eng.counter.total
    assert tr.misattributed(eng.counter.total, notes) is False, notes
    assert None not in metrics.values(), sorted(tr.absent)
    json.dumps(metrics, allow_nan=False)
