"""The engine payload of the streaming dissemination query.

One engine runs every cluster of a query, so the query is one group with
one state row, and one task runs it on each micro-batch. ``_payload``
pickles what that engine needs (the clusters, their members'
preferences, the attributes, domains and window) once, on the driver.
Inside a Spark worker, ``make_engine`` gives the group its first engine
and ``attach`` makes an engine unpickled from the state store runnable
again. Both take the profiles from a fresh engine that each worker builds
once per payload and keeps in a small cache keyed by the payload bytes
(a reused worker serves many queries). The query itself lives in
``repro.dataflow.streaming``.
"""
from __future__ import annotations

import functools
import pickle
import sys
import zipimport
from typing import Mapping, Sequence

from repro.core.common import Cluster
from repro.core.sliding import FTVSWEngine

OUTPUT_SCHEMA = "cluster_id string, user_id string, obj_id string, ts bigint"


def _payload(
    clusters: Sequence[Cluster],
    prefs_by_user: Mapping,
    attrs: Sequence[str],
    domains: Mapping,
    window: int | None,
) -> bytes:
    members = {c: prefs_by_user[c] for cl in clusters for c in cl.members}
    return pickle.dumps((list(clusters), members, tuple(attrs), dict(domains), window))


@functools.lru_cache(maxsize=64)
def _configuration(payload: bytes) -> FTVSWEngine:
    """The fresh engine of ``payload``, built once per worker process while
    it stays among the most recently used."""
    clusters, members, attrs, domains, window = pickle.loads(payload)
    return FTVSWEngine(attrs, clusters, members, domains, window=window)


def attach(engine: FTVSWEngine, payload: bytes) -> FTVSWEngine:
    """Give an engine unpickled from the state store the profiles of
    ``payload``; raises if its state was saved under another configuration."""
    engine.attach(_configuration(payload))
    return engine


def make_engine(payload: bytes) -> FTVSWEngine:
    """A new engine for the clusters ``payload`` describes."""
    config = _configuration(payload)
    engine = pickle.loads(pickle.dumps(config))  # the empty state of a fresh engine
    engine.attach(config)
    return engine


def drop_zip_importers() -> None:
    """Remove the ``zipimporter`` entries of ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task, and on CPython 3.11 that makes each cached ``zipimporter``
    re-read its archive's central directory in Python: ``pyspark.zip``,
    the py4j zip and the Spark core jar with their package sub-paths,
    about 130 ms per task on a 4-vCPU x86_64 host. Without the entries
    there is nothing to re-read. ``sys.path`` is left as it is, and an
    import that searches one of those paths rebuilds its entry from
    zipimport's directory cache without reading the archive.
    """
    cache = sys.path_importer_cache
    for path in [p for p, finder in cache.items() if isinstance(finder, zipimport.zipimporter)]:
        del cache[path]
