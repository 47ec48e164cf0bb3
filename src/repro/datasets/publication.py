"""Synthetic stand-in for the paper's ACM Digital Library dataset.

Users are corresponding authors; attributes are affiliation, author,
conference, keyword. The paper derives each user's partial order per
attribute from two counts: (collaborations, citations) for
affiliation/author and (publications, citations) for conference/keyword
— the same strict product-order rule as the movie dataset (see
``repro.datasets.derive``).

Generative model: latent research communities (groups). Each group has an
affinity profile over each attribute domain; a user's counts are Poisson
draws whose rates follow her group's affinity (plus individual noise), so
users in a community share many preference tuples while cross-community
overlap is small. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.datasets.derive import fill_missing_attrs, prefs_from_stats
from repro.datasets.movie import PreferenceDataset, zipf_choice
from repro.posets.poset import Poset

ATTRS = ("affiliation", "author", "conference", "keyword")
DEFAULT_DOMAIN_SIZES = {"affiliation": 12, "author": 14, "conference": 8, "keyword": 10}
#: Values per attribute a user has history with. A user's partial order
#: covers only those, as in the paper, where an author has counts only
#: for the venues they interacted with.
VALUES_PER_USER = 8
BASE_RATE = 20.0  #: Poisson rate of the first count on a user's top value
USER_NOISE = 0.08  #: sd of a user's log-affinity noise around the group's


def generate(
    *,
    n_users: int = 24,
    n_groups: int = 4,
    domain_sizes: dict[str, int] | None = None,
    n_stream: int = 300,
    seed: int = 11,
) -> PreferenceDataset:
    """Build the synthetic publication dataset at the requested scale."""
    sizes = dict(DEFAULT_DOMAIN_SIZES if domain_sizes is None else domain_sizes)
    attrs = tuple(d for d in ATTRS if d in sizes)
    g = np.random.default_rng(seed)
    domains = {d: [f"{d[:2]}{i}" for i in range(sizes[d])] for d in attrs}
    users = [f"a{i:03d}" for i in range(n_users)]
    group_of = {u: int(i % n_groups) for i, u in enumerate(users)}
    # Group affinity: exponentiated Gaussian so a community concentrates
    # its collaborations/citations on a few favourite values.
    gaff = {
        gi: {d: np.exp(g.normal(0.0, 1.0, size=len(vals))) for d, vals in domains.items()}
        for gi in range(n_groups)
    }
    rows = []
    for u in users:
        for d in attrs:
            vals = domains[d]
            aff = gaff[group_of[u]][d] * np.exp(g.normal(0, USER_NOISE, len(vals)))
            k = min(VALUES_PER_USER, len(vals))
            # A user has history with her community's favourite values
            # (plus noise in the ranking above).
            chosen = np.argsort(-aff)[:k]
            for vi in chosen:
                lam = BASE_RATE * aff[vi] / aff.max()
                s1 = int(g.poisson(lam))  # collaborations / publications
                s2 = int(g.poisson(2.0 * lam))  # citations
                if s1 == 0 and s2 == 0:
                    continue
                rows.append((u, d, vals[vi], float(s1), float(s2)))
    stats = pd.DataFrame(rows, columns=["user_id", "attr", "value", "s1", "s2"])
    prefs = fill_missing_attrs(prefs_from_stats(stats, domains), list(attrs), domains)
    for u in users:
        prefs.setdefault(u, {d: Poset([], domain=domains[d]) for d in attrs})

    stream = []
    cols = {d: zipf_choice(g, domains[d], n_stream) for d in attrs}
    for i in range(n_stream):
        stream.append((f"p{i}", tuple(cols[d][i] for d in attrs)))
    return PreferenceDataset(
        name="publication",
        attrs=attrs,
        domains=domains,
        users=users,
        group_of=group_of,
        stats=stats,
        prefs=prefs,
        stream=stream,
    )
