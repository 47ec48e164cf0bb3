"""Shared experiment machinery: build clusterings, run the engines over a
stream, and score efficacy / work-done / wall time.

Pipeline per dataset (mirrors the paper's Fig. 2 framework):

1. derive per-user preference relations (the dataset generator already
   applied the paper's derivation rules);
2. HAC over the Sec. VI-C vector-Jaccard similarity; branch cut ``θ(h)``
   gives the clustering for each ``h``;
3. exact clusters carry the common relation ``≻_U``; approximate clusters
   carry ``≻_aU`` from GetApproxPreferenceTuples;
4. stream the objects through Baseline / FilterThenVerifyExact /
   FilterThenVerifyApprox (and the SW variants), accumulating
   disseminated (user, object) pairs, comparison counts, and time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.approx import approx_cluster_relation
from repro.core.common import Cluster, make_exact_clusters
from repro.core.hac import Dendrogram, cluster_users
from repro.core.metrics import Efficacy, efficacy
from repro.core.sliding import BaselineSWEngine, FTVSWEngine
from repro.datasets.movie import PreferenceDataset


@dataclass
class RunResult:
    algorithm: str
    h: float | None
    window: int | None
    n_objects: int
    n_users: int
    n_clusters: int | None
    seconds: float
    comparisons: int
    comparisons_by_stage: dict[str, int]
    disseminated: set[tuple[str, str]]


def build_dendrogram(ds: PreferenceDataset) -> Dendrogram:
    return cluster_users(list(ds.attrs), ds.prefs)


def clusters_for(
    ds: PreferenceDataset,
    dendrogram: Dendrogram,
    h: float,
    *,
    approximate: bool,
    threshold2: float = 0.6,
) -> list[Cluster]:
    partition = dendrogram.theta(h)
    if not approximate:
        return make_exact_clusters(partition, ds.prefs, list(ds.attrs))
    return [
        Cluster(
            i,
            tuple(members),
            approx_cluster_relation(list(members), ds.prefs, list(ds.attrs), threshold2=threshold2),
        )
        for i, members in enumerate(partition)
    ]


def _run(engine, stream) -> tuple[float, set[tuple[str, str]]]:
    t0 = time.perf_counter()
    pairs: set[tuple[str, str]] = set()
    for oid, vals in stream:
        engine.insert(oid, vals)
        pairs |= engine.disseminated  # targets plus SW mend promotions
    return time.perf_counter() - t0, pairs


def run_baseline(ds: PreferenceDataset, *, n_objects: int | None = None, window: int | None = None) -> RunResult:
    stream = ds.stream[: n_objects or len(ds.stream)]
    domains = ds.domains
    eng = BaselineSWEngine(ds.attrs, ds.prefs, domains, window=window)
    dt, pairs = _run(eng, stream)
    return RunResult(
        "BaselineSW" if window else "Baseline",
        None,
        window,
        len(stream),
        len(ds.users),
        None,
        dt,
        eng.counter.total,
        dict(eng.counter.by_stage),
        pairs,
    )


def run_ftv(
    ds: PreferenceDataset,
    clusters: list[Cluster],
    *,
    approximate: bool,
    h: float,
    n_objects: int | None = None,
    window: int | None = None,
) -> RunResult:
    stream = ds.stream[: n_objects or len(ds.stream)]
    eng = FTVSWEngine(ds.attrs, clusters, ds.prefs, ds.domains, window=window)
    dt, pairs = _run(eng, stream)
    name = "FilterThenVerify" + ("Approx" if approximate else "Exact") + ("SW" if window else "")
    return RunResult(
        name,
        h,
        window,
        len(stream),
        len(ds.users),
        len(clusters),
        dt,
        eng.counter.total,
        dict(eng.counter.by_stage),
        pairs,
    )


def score(approx_run: RunResult, exact_run: RunResult) -> Efficacy:
    return efficacy(approx_run.disseminated, exact_run.disseminated)
