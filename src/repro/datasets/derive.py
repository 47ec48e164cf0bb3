"""Preference derivation — the paper's Sec. VIII-A rules, reproduced
verbatim.

Both evaluation datasets derive each user's per-attribute strict partial
order from two per-(user, attr, value) statistics ``(s1, s2)``:

* movie: ``s1`` = average rating of the user's rated movies carrying the
  value, ``s2`` = how many such movies the user rated;
* publication: for affiliation/author ``s1`` = collaborations, ``s2`` =
  citations; for conference/keyword ``s1`` = publications, ``s2`` =
  citations.

The rule is the strict product order: ``(a, b) ∈ ≻_c^d ⟺ (s1_a > s1_b ∧
s2_a ≥ s2_b) ∨ (s1_a ≥ s1_b ∧ s2_a > s2_b)``, which is automatically
irreflexive and transitive (dominance in the plane), hence a strict
partial order — ties on both statistics are incomparable.

This module is the pandas reference implementation. The Spark SQL
implementation in ``repro.dataflow.prefs_sql`` derives the same relations
and is tested equal to this one (and to DuckDB running the same SQL).
What the relations feed (cluster common relations, HAC similarities) is
computed on the driver.
"""
from __future__ import annotations

import pandas as pd

from repro.posets.poset import Poset


def prefs_from_stats(stats: pd.DataFrame, domains: dict[str, list]) -> dict[str, dict[str, Poset]]:
    """stats columns: user_id, attr, value, s1, s2 → user → attr → Poset.

    Values a user has no statistics for are incomparable to everything
    (they stay in the domain but join no pair), matching the paper: a
    user's partial order only covers values the user has history with.
    """
    out: dict[str, dict[str, Poset]] = {}
    for (user, attr), grp in stats.groupby(["user_id", "attr"], sort=True):
        vals = grp["value"].tolist()
        s1 = grp["s1"].tolist()
        s2 = grp["s2"].tolist()
        pairs = []
        for i in range(len(vals)):
            for j in range(len(vals)):
                if i == j:
                    continue
                better = (s1[i] > s1[j] and s2[i] >= s2[j]) or (
                    s1[i] >= s1[j] and s2[i] > s2[j]
                )
                if better:
                    pairs.append((vals[i], vals[j]))
        out.setdefault(user, {})[attr] = Poset(pairs, domain=domains[attr])
    return out


def fill_missing_attrs(
    prefs: dict[str, dict[str, Poset]], attrs: list[str], domains: dict[str, list]
) -> dict[str, dict[str, Poset]]:
    """Users without history on an attribute get the empty relation."""
    for user, by_attr in prefs.items():
        for d in attrs:
            by_attr.setdefault(d, Poset([], domain=domains[d]))
    return prefs


def stats_from_ratings(ratings: pd.DataFrame, objects: pd.DataFrame, attrs: list[str]) -> pd.DataFrame:
    """Movie rule: per (user, attr, value) average rating + count.

    ``ratings``: user_id, obj_id, rating; ``objects``: obj_id + one column
    per attribute. Returns user_id, attr, value, s1 (avg rating), s2
    (count) — the long ("melted") stats table.
    """
    joined = ratings.merge(objects, on="obj_id")
    frames = []
    for d in attrs:
        g = (
            joined.groupby(["user_id", d], sort=True)["rating"]
            .agg(s1="mean", s2="count")
            .reset_index()
            .rename(columns={d: "value"})
        )
        g.insert(1, "attr", d)
        frames.append(g)
    out = pd.concat(frames, ignore_index=True)
    out["s2"] = out["s2"].astype("int64")
    return out
