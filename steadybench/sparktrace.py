"""Worker-side tracing of the streaming query's state handling.

``streambench`` points the streaming module's ``pickle`` and
``make_engine`` names at this module while it builds the traced query,
so the query's ``process`` function (shipped to the Python workers by
value, its globals by reference) calls these wrappers. Each call of
``process`` loads one cluster's engine, runs the batch and saves the
engine; the wrappers time the three parts and append one JSON line per
call to a file under ``$STEADYBENCH_TRACE_DIR``.
"""
from __future__ import annotations

import json
import os
import pickle as _pickle
import time

TRACE_DIR_ENV = "STEADYBENCH_TRACE_DIR"
_open: dict = {}  # the call in progress in this worker process


def _begin(unpickle_s: float) -> None:
    _open.clear()
    _open.update(start=time.perf_counter(), unpickle_ms=unpickle_s * 1e3)


def loads(data):
    t0 = time.perf_counter()
    engine = _pickle.loads(data)
    _begin(time.perf_counter() - t0)
    return engine


def make_engine(payload):
    from repro.dataflow.dissemination import make_engine as build

    engine = build(payload)
    _begin(0.0)
    return engine


def dumps(engine):
    t0 = time.perf_counter()
    blob = _pickle.dumps(engine)
    t1 = time.perf_counter()
    if _open and os.environ.get(TRACE_DIR_ENV):
        record = {
            "arrivals": getattr(engine, "t", None),  # arrivals seen so far
            "unpickle_ms": _open["unpickle_ms"],
            "engine_ms": (t0 - _open["start"]) * 1e3,
            "pickle_ms": (t1 - t0) * 1e3,
            "bytes": len(blob),
        }
        path = os.path.join(os.environ[TRACE_DIR_ENV], f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")
    _open.clear()
    return blob


def read_records(trace_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            out.extend(json.loads(line) for line in f)
    return out
