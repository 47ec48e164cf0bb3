"""Per-cluster engine payloads for the streaming dissemination query.

Each cluster (its virtual-user relation, its members and their
preferences) is one partition of work. ``_cluster_payload`` pickles what a
cluster's engine needs once, on the driver. Inside a Spark worker,
``make_engine`` gives a cluster's group its first engine and ``attach``
makes an engine unpickled from the state store runnable again. Both take
the profiles from a fresh engine that each worker builds once per payload
and keeps in a small cache keyed by the payload's digest (a reused worker
serves the clusters of many queries); every engine of that payload shares
those profiles. The query itself lives in ``repro.dataflow.streaming``.
"""
from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Mapping, Sequence

from repro.core.common import Cluster
from repro.core.sliding import FTVSWEngine

OUTPUT_SCHEMA = "cluster_id string, user_id string, obj_id string, ts bigint"


def _cluster_payload(
    clusters: Sequence[Cluster],
    prefs_by_user: Mapping,
    attrs: Sequence[str],
    domains: Mapping,
    window: int | None,
) -> dict[str, bytes]:
    out = {}
    for cl in clusters:
        members = {c: prefs_by_user[c] for c in cl.members}
        out[str(cl.cluster_id)] = pickle.dumps(
            (cl, members, tuple(attrs), dict(domains), window)
        )
    return out


_CACHE_SIZE = 64
#: payload digest -> fresh engine. A module global, because it must outlive
#: the calls of the query's per-group function within one worker process.
_configured: OrderedDict[bytes, FTVSWEngine] = OrderedDict()


def _configuration(payload: bytes) -> FTVSWEngine:
    """The fresh single-cluster engine of ``payload``, built once per
    worker while it stays among the ``_CACHE_SIZE`` most recently used."""
    key = hashlib.blake2b(payload, digest_size=16).digest()
    if key in _configured:
        _configured.move_to_end(key)
    else:
        cl, members, attrs, domains, window = pickle.loads(payload)
        _configured[key] = FTVSWEngine(attrs, [cl], members, domains, window=window)
        if len(_configured) > _CACHE_SIZE:
            _configured.popitem(last=False)
    return _configured[key]


def attach(engine: FTVSWEngine, payload: bytes) -> FTVSWEngine:
    """Give an engine unpickled from the state store the profiles of
    ``payload``; raises if its state was saved under another configuration."""
    engine.attach(_configuration(payload))
    return engine


def make_engine(payload: bytes) -> FTVSWEngine:
    """A new single-cluster engine for the cluster ``payload`` describes."""
    config = _configuration(payload)
    engine = pickle.loads(pickle.dumps(config))  # the empty state of a fresh engine
    engine.attach(config)
    return engine
