"""Per-cluster engine payloads for the streaming dissemination query.

Each cluster (its virtual-user relation, its members and their
preferences) is one partition of work. ``_cluster_payload`` pickles what a
cluster's engine needs once, on the driver; ``make_engine`` rebuilds the
single-cluster FilterThenVerify(SW) engine from it inside a Spark worker
the first time the cluster's group is seen. The query itself lives in
``repro.dataflow.streaming``.
"""
from __future__ import annotations

import pickle
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


def make_engine(payload: bytes):
    """Rebuild a single-cluster engine from its pickled payload."""
    cl, members, attrs, domains, window = pickle.loads(payload)
    return FTVSWEngine(attrs, [cl], members, domains, window=window)
