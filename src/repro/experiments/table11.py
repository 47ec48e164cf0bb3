"""Table XI: efficacy of FilterThenVerifyApprox vs the exact result,
varying branch cut h ∈ {0.70, 0.65, 0.60, 0.55}, d = 4, both datasets.

The paper runs n = 1,000,000 objects x 1,000 users (Java, testbed); this
harness reruns the same experiment design at a reduced, configurable
scale (see EXPERIMENTS.md for the scale used and the paper-vs-measured
rows). Ground truth is the Baseline run; FilterThenVerifyExact is
asserted equal to it on every invocation (a free end-to-end check).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import Efficacy
from repro.datasets import movie, publication
from repro.experiments.harness import (
    build_dendrogram,
    clusters_for,
    run_baseline,
    run_ftv,
    score,
)

H_VALUES = (0.70, 0.65, 0.60, 0.55)

#: Table XI as printed in the paper (percent): dataset -> h -> (P, R, F).
PAPER_TABLE_XI = {
    "movie": {
        0.70: (100.0, 95.10, 97.49),
        0.65: (100.0, 93.43, 96.60),
        0.60: (99.99, 92.70, 96.21),
        0.55: (99.99, 89.56, 94.49),
    },
    "publication": {
        0.70: (100.0, 96.72, 98.33),
        0.65: (100.0, 95.98, 97.95),
        0.60: (100.0, 95.68, 97.79),
        0.55: (100.0, 95.28, 97.58),
    },
}


@dataclass
class Row:
    dataset: str
    h: float
    n_clusters: int
    efficacy: Efficacy
    baseline_comparisons: int
    exact_comparisons: int
    approx_comparisons: int


def make_dataset(name: str, *, n_users: int, n_groups: int, n_stream: int):
    """The named dataset, drawn with generator seed 7."""
    if name == "movie":
        return movie.generate(
            n_users=n_users, n_groups=n_groups, n_stream=n_stream, seed=7
        )
    if name == "publication":
        return publication.generate(
            n_users=n_users, n_groups=n_groups, n_stream=n_stream, seed=7
        )
    raise ValueError(name)


def run(
    dataset: str,
    *,
    n_users: int = 60,
    n_groups: int = 5,
    n_stream: int = 3000,
    h_values: tuple[float, ...] = H_VALUES,
) -> list[Row]:
    ds = make_dataset(dataset, n_users=n_users, n_groups=n_groups, n_stream=n_stream)
    dend = build_dendrogram(ds)
    base = run_baseline(ds)
    rows = []
    for h in h_values:
        exact = run_ftv(
            ds, clusters_for(ds, dend, h, approximate=False), approximate=False, h=h
        )
        if exact.disseminated != base.disseminated:
            raise AssertionError(
                f"FilterThenVerifyExact diverged from Baseline at h={h} — bug"
            )
        approx = run_ftv(ds, clusters_for(ds, dend, h, approximate=True), approximate=True, h=h)
        rows.append(
            Row(
                dataset,
                h,
                exact.n_clusters,
                score(approx, base),
                base.comparisons,
                exact.comparisons,
                approx.comparisons,
            )
        )
    return rows


def to_markdown(rows: list[Row]) -> str:
    out = [
        "| dataset | h | clusters | precision % (paper) | recall % (paper) | F % (paper) |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        p, rec, f = r.efficacy.as_percent()
        pp, pr, pf = PAPER_TABLE_XI[r.dataset][r.h]
        out.append(
            f"| {r.dataset} | {r.h:.2f} | {r.n_clusters} | "
            f"{p:.2f} ({pp:.2f}) | {rec:.2f} ({pr:.2f}) | {f:.2f} ({pf:.2f}) |"
        )
    return "\n".join(out)
