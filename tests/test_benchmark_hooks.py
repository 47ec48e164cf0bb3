"""The benchmark (``steadybench/``) wraps program functions that it looks
up by name; a rename would silently turn its per-layer metrics absent.
These tests pin every name it patches."""
import pytest

from repro.dataflow import dissemination, streaming
from steadybench import tracer


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
