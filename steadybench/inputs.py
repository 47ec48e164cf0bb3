"""Inputs: the fixed user population and the seeded object streams.

The population is always the synthetic movie population drawn with
generator seed 7: 60 users in 5 latent groups, HAC cut at h = 0.55 (five
clusters), approximate relations with threshold2 = 0.6. Re-drawing the
population per seed moved comparisons per object by more than 50%, so
the command-line seed draws only the object stream.

Streams are drawn here, not by the program, from the movie catalog's
distribution: Zipf(0.9) over each attribute's domain. Sub-stream ``part``
of seed ``s`` uses ``numpy.random.default_rng([s, part])``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

POPULATION_SEED = 7
N_USERS = 60
N_GROUPS = 5
BRANCH_CUT = 0.55
THRESHOLD2 = 0.6
ZIPF_ALPHA = 0.9

Stream = list[tuple[str, tuple[str, ...]]]


@dataclass
class Population:
    attrs: tuple[str, ...]
    domains: dict[str, list[str]]
    prefs: dict  #: user -> attr -> Poset
    exact_clusters: list
    approx_clusters: list


def build_population(clock) -> tuple[Population, dict[str, float]]:
    """Build the population; returns it with each phase's normalised seconds.

    Each phase is timed between its own pair of reference units, so a
    host speed change during set-up is corrected phase by phase.
    """
    from repro.datasets import movie
    from repro.experiments.harness import build_dendrogram, clusters_for

    phases = {}
    ds, phases["generate"] = clock.timed(
        lambda: movie.generate(
            n_users=N_USERS, n_groups=N_GROUPS, n_stream=1, seed=POPULATION_SEED
        )
    )
    dendrogram, phases["hac"] = clock.timed(lambda: build_dendrogram(ds))
    (exact, approx), phases["relations"] = clock.timed(
        lambda: (
            clusters_for(ds, dendrogram, BRANCH_CUT, approximate=False),
            clusters_for(ds, dendrogram, BRANCH_CUT, approximate=True, threshold2=THRESHOLD2),
        )
    )
    pop = Population(tuple(ds.attrs), dict(ds.domains), ds.prefs, exact, approx)
    return pop, phases


def draw_stream(pop: Population, seed: int, part: int, n: int) -> Stream:
    """``n`` objects of sub-stream ``part`` for ``seed``; ids are unique per part.

    Stratified: each attribute value occurs exactly its expected Zipf count
    (largest remainders), and the seed draws the order of each attribute's
    values, hence which values meet in one object. Fixed counts remove
    one source of seed-to-seed spread in the work a stream causes.
    """
    g = np.random.default_rng([seed, part])
    cols = []
    for d in pop.attrs:
        values: Sequence[str] = pop.domains[d]
        w = 1.0 / np.arange(1, len(values) + 1) ** ZIPF_ALPHA
        expected = w / w.sum() * n
        counts = np.floor(expected).astype(int)
        counts[np.argsort(counts - expected, kind="stable")[: n - counts.sum()]] += 1
        order = g.permutation(np.repeat(np.arange(len(values)), counts))
        cols.append([values[i] for i in order])
    return [(f"o{part}_{i:05d}", tuple(c[i] for c in cols)) for i in range(n)]
