"""Synthetic stand-in for the paper's Netflix x IMDB movie dataset.

The paper joins Netflix ratings with IMDB attributes (actor, director,
genre, writer) and derives each user's per-attribute partial order from
(average rating, count) — see ``repro.datasets.derive``. We reproduce the
generative process that makes that derivation meaningful:

* a hidden per-*group* quality score for every attribute value (users
  belong to latent preference groups — the structure FilterThenVerify's
  clustering exploits; real users exhibit it through correlated tastes);
* each user = her group's scores + Gaussian noise;
* a back-catalog of movies with Zipf-popular attribute values; each user
  rates a random subset, rating = clipped round of 3 + Σ_d score(value_d)
  + noise ∈ {0..5};
* the evaluation stream is a fresh sequence of movies from the same
  catalog distribution.

Deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.datasets.derive import fill_missing_attrs, prefs_from_stats, stats_from_ratings
from repro.posets.poset import Poset

ATTRS = ("actor", "director", "genre", "writer")
DEFAULT_DOMAIN_SIZES = {"actor": 14, "director": 10, "genre": 8, "writer": 10}
USER_NOISE = 0.1  #: sd of a user's score noise around the group's
RATING_NOISE = 0.2  #: sd of the noise added to each rating
#: Self-selection in rating data: a user rates movie ``m`` with
#: probability ∝ exp(SELECT_BIAS * utility(m)), so movies the user likes
#: get rated more often. This aligns per-value counts with per-value
#: average ratings, which densifies the derived partial orders and keeps
#: Pareto frontiers selective ("most objects are non-Pareto-optimal",
#: Sec. IV), as in the paper's real data.
SELECT_BIAS = 2.0
ZIPF_ALPHA = 0.9  #: popularity skew of every attribute, both datasets


@dataclass
class PreferenceDataset:
    """Everything the experiments need, for either dataset."""

    name: str
    attrs: tuple[str, ...]
    domains: dict[str, list[str]]
    users: list[str]
    group_of: dict[str, int]
    stats: pd.DataFrame  #: user_id, attr, value, s1, s2
    prefs: dict[str, dict[str, Poset]]
    stream: list[tuple[str, tuple[str, ...]]]  #: (object_id, attr values)
    ratings: pd.DataFrame | None = None  #: movie only: user_id, obj_id, rating
    hist_objects: pd.DataFrame | None = None  #: movie only: obj_id + attrs


def zipf_choice(g: np.random.Generator, values, size: int) -> np.ndarray:
    """Zipf-weighted draw over an explicit value list (used by the movie /
    publication generators: catalogs have popularity-skewed attributes)."""
    ranks = np.arange(1, len(values) + 1)
    w = 1.0 / ranks**ZIPF_ALPHA
    w /= w.sum()
    return g.choice(np.asarray(values, dtype=object), size=size, p=w)


def _group_scores(g, n_groups, domains):
    return {
        gi: {d: g.normal(0.0, 1.0, size=len(vals)) for d, vals in domains.items()}
        for gi in range(n_groups)
    }


def generate(
    *,
    n_users: int = 24,
    n_groups: int = 4,
    domain_sizes: dict[str, int] | None = None,
    n_hist: int = 300,
    ratings_per_user: int = 240,
    n_stream: int = 300,
    seed: int = 7,
) -> PreferenceDataset:
    """Build the synthetic movie dataset at the requested scale."""
    sizes = dict(DEFAULT_DOMAIN_SIZES if domain_sizes is None else domain_sizes)
    attrs = tuple(d for d in ATTRS if d in sizes)
    g = np.random.default_rng(seed)
    domains = {d: [f"{d[:2]}{i}" for i in range(sizes[d])] for d in attrs}
    users = [f"u{i:03d}" for i in range(n_users)]
    group_of = {u: int(i % n_groups) for i, u in enumerate(users)}
    gscores = _group_scores(g, n_groups, domains)
    uscores = {
        u: {
            d: gscores[group_of[u]][d] + g.normal(0.0, USER_NOISE, size=len(domains[d]))
            for d in attrs
        }
        for u in users
    }

    def sample_movies(n, prefix):
        cols = {"obj_id": [f"{prefix}{i}" for i in range(n)]}
        for d in attrs:
            cols[d] = zipf_choice(g, domains[d], n)
        return pd.DataFrame(cols)

    hist = sample_movies(n_hist, "h")
    val_idx = {d: {v: i for i, v in enumerate(domains[d])} for d in attrs}
    hist_util = {}
    for u in users:
        util = np.zeros(n_hist)
        for d in attrs:
            idx = hist[d].map(val_idx[d]).to_numpy()
            util = util + uscores[u][d][idx]
        hist_util[u] = util / max(1, len(attrs))
    rating_rows = []
    for u in users:
        w = np.exp(SELECT_BIAS * hist_util[u])
        w /= w.sum()
        picks = g.choice(n_hist, size=min(ratings_per_user, n_hist), replace=False, p=w)
        sub = hist.iloc[picks]
        raw = 3.0 + hist_util[u][picks] * 1.8 + g.normal(0, RATING_NOISE, len(sub))
        stars = np.clip(np.rint(raw), 0, 5).astype(int)
        rating_rows.append(
            pd.DataFrame(
                {"user_id": u, "obj_id": sub["obj_id"].to_numpy(), "rating": stars}
            )
        )
    ratings = pd.concat(rating_rows, ignore_index=True)
    stats = stats_from_ratings(ratings, hist, list(attrs))
    prefs = fill_missing_attrs(prefs_from_stats(stats, domains), list(attrs), domains)
    for u in users:
        prefs.setdefault(u, {d: Poset([], domain=domains[d]) for d in attrs})

    stream_df = sample_movies(n_stream, "m")
    stream = [
        (row.obj_id, tuple(getattr(row, d) for d in attrs))
        for row in stream_df.itertuples(index=False)
    ]
    return PreferenceDataset(
        name="movie",
        attrs=attrs,
        domains=domains,
        users=users,
        group_of=group_of,
        stats=stats,
        prefs=prefs,
        stream=stream,
        ratings=ratings,
        hist_objects=hist,
    )
