"""Distributed continuous dissemination: object batches x clustered
user-preference partitions.

Each cluster (with its virtual-user relation, its members and their
preferences) is one partition of work; Spark schedules cluster groups
across cores with ``groupBy(cluster_id).applyInPandas``. The object batch
is shipped to every cluster partition (broadcast via closure — the batch
is the small side; the per-cluster engine state is the large side), each
partition runs the FilterThenVerify engine over the batch in timestamp
order, and the union of emitted (cluster, user, object) rows is the
dissemination result.

This is the *batch* entrypoint (one call = one self-contained stream
replay). The continuously-running variant with cross-batch engine state
lives in ``repro.dataflow.streaming``.
"""
from __future__ import annotations

import pickle
from typing import Iterable, Mapping, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

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


def disseminate(
    spark: SparkSession,
    clusters: Sequence[Cluster],
    prefs_by_user: Mapping,
    attrs: Sequence[str],
    domains: Mapping,
    stream: Iterable[tuple[str, tuple]],
    *,
    window: int | None = None,
) -> DataFrame:
    """Replay ``stream`` against every cluster partition in parallel.

    Returns a DataFrame (cluster_id, user_id, obj_id, ts) of disseminated
    pairs. ``ts`` is the arrival step that emitted the pair: the object's
    own arrival, or for a sliding-window mend promotion the later arrival
    whose expiry promoted it (as in ``repro.dataflow.streaming``).
    """
    payloads = _cluster_payload(clusters, prefs_by_user, attrs, domains, window)
    batch = [(str(oid), tuple(vals)) for oid, vals in stream]
    bc_payloads = spark.sparkContext.broadcast(payloads)
    bc_batch = spark.sparkContext.broadcast(batch)

    def run_cluster(pdf: pd.DataFrame) -> pd.DataFrame:
        cid = str(pdf["cluster_id"].iloc[0])
        engine = make_engine(bc_payloads.value[cid])
        rows = []
        for t, (oid, vals) in enumerate(bc_batch.value, start=1):
            engine.insert(oid, vals)
            rows.extend((cid, str(user), o, t) for user, o in engine.disseminated)
        return pd.DataFrame(rows, columns=["cluster_id", "user_id", "obj_id", "ts"])

    keys = spark.createDataFrame(
        pd.DataFrame({"cluster_id": list(payloads)})
    )
    return keys.groupBy("cluster_id").applyInPandas(run_cluster, OUTPUT_SCHEMA)
