"""Table XII: efficacy of FilterThenVerifyApproxSW over sliding windows,
varying W ∈ {400, 800, 1600, 3200} x h ∈ {0.70..0.55}, d = 4, both
datasets. Ground truth per window is BaselineSW's dissemination set
(which FilterThenVerifyExactSW is asserted to match)."""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import Efficacy
from repro.experiments.harness import build_dendrogram, clusters_for, run_baseline, run_ftv, score
from repro.experiments.table11 import make_dataset

W_VALUES = (400, 800, 1600, 3200)
H_VALUES = (0.70, 0.65, 0.60, 0.55)

#: Table XII as printed in the paper (percent): dataset -> W -> h -> (P, R, F).
PAPER_TABLE_XII = {
    "movie": {
        400: {0.70: (100, 89.36, 94.38), 0.65: (100, 87.33, 93.24), 0.60: (100, 85.94, 92.44), 0.55: (100, 81.95, 90.08)},
        800: {0.70: (100, 87.87, 93.54), 0.65: (100, 85.78, 92.34), 0.60: (100, 84.04, 91.33), 0.55: (100, 80.10, 88.95)},
        1600: {0.70: (100, 88.65, 93.98), 0.65: (100, 86.58, 92.81), 0.60: (100, 85.01, 91.90), 0.55: (100, 81.10, 89.56)},
        3200: {0.70: (99.99, 94.80, 97.33), 0.65: (100, 93.08, 96.41), 0.60: (100, 92.29, 95.99), 0.55: (100, 88.99, 94.17)},
    },
    "publication": {
        400: {0.70: (100, 94.58, 97.21), 0.65: (100, 93.57, 96.68), 0.60: (100, 92.98, 96.36), 0.55: (100, 92.06, 95.87)},
        800: {0.70: (100, 94.79, 97.32), 0.65: (100, 93.60, 96.70), 0.60: (100, 93.01, 96.38), 0.55: (100, 91.98, 95.82)},
        1600: {0.70: (100, 94.62, 97.24), 0.65: (100, 93.44, 96.61), 0.60: (100, 92.85, 96.29), 0.55: (100, 91.81, 95.73)},
        3200: {0.70: (100, 96.71, 98.33), 0.65: (100, 95.98, 97.95), 0.60: (100, 95.67, 97.79), 0.55: (100, 95.27, 97.58)},
    },
}


@dataclass
class Row:
    dataset: str
    window: int
    h: float
    n_clusters: int
    efficacy: Efficacy
    baseline_comparisons: int
    approx_comparisons: int


def run(
    dataset: str,
    *,
    n_users: int = 40,
    n_groups: int = 5,
    n_stream: int = 4000,
    w_values: tuple[int, ...] = W_VALUES,
    h_values: tuple[float, ...] = H_VALUES,
) -> list[Row]:
    ds = make_dataset(dataset, n_users=n_users, n_groups=n_groups, n_stream=n_stream)
    dend = build_dendrogram(ds)
    rows = []
    for w in w_values:
        base = run_baseline(ds, window=w)
        # One exact SW run per window doubles as an end-to-end check.
        exact = run_ftv(
            ds,
            clusters_for(ds, dend, h_values[0], approximate=False),
            approximate=False,
            h=h_values[0],
            window=w,
        )
        if exact.disseminated != base.disseminated:
            raise AssertionError(f"FilterThenVerifyExactSW diverged at W={w}")
        for h in h_values:
            approx = run_ftv(
                ds,
                clusters_for(ds, dend, h, approximate=True),
                approximate=True,
                h=h,
                window=w,
            )
            rows.append(
                Row(
                    dataset,
                    w,
                    h,
                    approx.n_clusters,
                    score(approx, base),
                    base.comparisons,
                    approx.comparisons,
                )
            )
    return rows


def to_markdown(rows: list[Row]) -> str:
    out = [
        "| dataset | W | h | clusters | precision % (paper) | recall % (paper) | F % (paper) |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        p, rec, f = r.efficacy.as_percent()
        paper = PAPER_TABLE_XII.get(r.dataset, {}).get(r.window, {}).get(r.h)
        pp, pr, pf = (f"{v:.2f}" for v in paper) if paper else ("-", "-", "-")
        out.append(
            f"| {r.dataset} | {r.window} | {r.h:.2f} | {r.n_clusters} | "
            f"{p:.2f} ({pp}) | {rec:.2f} ({pr}) | {f:.2f} ({pf}) |"
        )
    return "\n".join(out)
