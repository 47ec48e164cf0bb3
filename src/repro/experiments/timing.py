"""Figures 6-13 rendered as tables: cumulative execution time and work
done (object comparisons) for Baseline vs FilterThenVerifyExact vs
FilterThenVerifyApprox — append-only varying n and d (Figs. 6-9), sliding
window varying W and d (Figs. 10-13). h = 0.55 throughout, matching the
paper's configuration."""
from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import build_dendrogram, clusters_for, run_baseline, run_ftv
from repro.experiments.table11 import make_dataset


@dataclass
class Row:
    dataset: str
    variant: str  #: "static" | "sliding"
    n: int
    d: int
    window: int | None
    algorithm: str
    seconds: float
    comparisons: int


def _restrict_attrs(ds, d: int):
    """Project the dataset to its first ``d`` attributes (paper's varying-d
    sweep). Preferences/domains keep only those attributes."""
    if d >= len(ds.attrs):
        return ds
    import copy

    sub = copy.copy(ds)
    sub.attrs = ds.attrs[:d]
    sub.domains = {a: ds.domains[a] for a in sub.attrs}
    sub.prefs = {u: {a: p[a] for a in sub.attrs} for u, p in ds.prefs.items()}
    sub.stream = [(oid, vals[:d]) for oid, vals in ds.stream]
    return sub


def run(
    dataset: str,
    *,
    n_users: int = 60,
    n_groups: int = 5,
    n_values: tuple[int, ...] = (500, 1000, 2000, 4000),
    d_values: tuple[int, ...] = (2, 3, 4),
    w_values: tuple[int, ...] = (400, 800, 1600, 3200),
    h: float = 0.55,
    sliding: bool = False,
) -> list[Row]:
    n_max = max(n_values)
    ds_full = make_dataset(dataset, n_users=n_users, n_groups=n_groups, n_stream=n_max)
    dend_full = build_dendrogram(ds_full)
    rows: list[Row] = []

    def run_all(ds, dend, n, d, window):
        variant = "sliding" if window else "static"
        base = run_baseline(ds, n_objects=n, window=window)
        rows.append(Row(dataset, variant, n, d, window, base.algorithm, base.seconds, base.comparisons))
        for approximate in (False, True):
            res = run_ftv(
                ds,
                clusters_for(ds, dend, h, approximate=approximate),
                approximate=approximate,
                h=h,
                n_objects=n,
                window=window,
            )
            rows.append(Row(dataset, variant, n, d, window, res.algorithm, res.seconds, res.comparisons))

    if not sliding:
        for n in n_values:
            run_all(ds_full, dend_full, n, len(ds_full.attrs), None)
    else:
        for w in w_values:
            run_all(ds_full, dend_full, n_max, len(ds_full.attrs), w)
    for d in d_values:
        if d == len(ds_full.attrs):
            continue  # covered by the n or W sweep
        ds = _restrict_attrs(ds_full, d)
        run_all(ds, build_dendrogram(ds), n_max // 2, d, w_values[-1] if sliding else None)
    return rows


def to_markdown(rows: list[Row]) -> str:
    out = [
        "| dataset | variant | n | d | W | algorithm | time (s) | comparisons | vs Baseline |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    base_cmp: dict[tuple, int] = {}
    for r in rows:
        key = (r.dataset, r.variant, r.n, r.d, r.window)
        if r.algorithm.startswith("Baseline"):
            base_cmp[key] = r.comparisons
    for r in rows:
        key = (r.dataset, r.variant, r.n, r.d, r.window)
        ratio = base_cmp.get(key, 0) / r.comparisons if r.comparisons else float("nan")
        out.append(
            f"| {r.dataset} | {r.variant} | {r.n} | {r.d} | {r.window or '-'} | "
            f"{r.algorithm} | {r.seconds:.2f} | {r.comparisons} | {ratio:.1f}x |"
        )
    return "\n".join(out)
