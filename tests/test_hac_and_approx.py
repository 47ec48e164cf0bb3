"""HAC dendrogram/branch cut (Def. 7, Example 10) and Algorithm 3
(GetApproxPreferenceTuples, Example 11, Lemma 2, Theorems 3/4)."""
import os
import pathlib
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approx_cluster_relation, get_approx_preference_tuples
from repro.core.common import cluster_common_relation
from repro.core.dominance import Profile, brute_force_frontier
from repro.core.hac import cluster_users
from repro.core.similarity import (
    mean_attr_similarity,
    sim_i,
    sim_j,
    sim_wi,
    sim_wj,
    tuple_frequencies,
    vec_jaccard,
)
from repro.datasets import movie, publication
from repro.datasets.laptop import TABLE_IV_BRAND
from repro.experiments.harness import build_dendrogram
from repro.posets.poset import Poset, common_relation, is_strict_partial_order
from tests.test_posets import spo_strategy


def _prefs_table_iv():
    # one-attribute preference profiles for the six Table IV users
    return {c: {"brand": p} for c, p in TABLE_IV_BRAND.items()}


MEASURES = (
    "intersection",
    "jaccard",
    "weighted_intersection",
    "weighted_jaccard",
    "vector_jaccard",
    "weighted_vector_jaccard",
)

# Full merge sequences of `build_dendrogram` at 12 users: left members,
# right members, `sim.hex()`.
PINNED_DENDROGRAMS = {
    "movie": [
        ("u008", "u011", "0x1.7fc962fc962fcp-1"),
        ("u001", "u004", "0x1.7e02bf1175814p-1"),
        ("u000", "u006", "0x1.7ddc865a52c68p-1"),
        ("u003", "u009", "0x1.70b669b7730b6p-1"),
        ("u000 u006", "u003 u009", "0x1.759daaeef4008p-1"),
        ("u007", "u001 u004", "0x1.668c3bea6268cp-1"),
        ("u010", "u007 u001 u004", "0x1.61195766eacbcp-1"),
        ("u005", "u008 u011", "0x1.5ba3e83b48982p-1"),
        ("u002", "u005 u008 u011", "0x1.48c99ca202dadp-1"),
        ("u000 u006 u003 u009", "u010 u007 u001 u004", "0x1.ae78f52af6d4ep-2"),
        ("u002 u005 u008 u011", "u000 u006 u003 u009 u010 u007 u001 u004", "0x1.06055c5ec9791p-2"),
    ],
    "publication": [
        ("a003", "a009", "0x1.8526ca7ac7740p-1"),
        ("a000", "a003 a009", "0x1.6cdfa1d6cdfa2p-1"),
        ("a006", "a000 a003 a009", "0x1.647a4bb44c45fp-1"),
        ("a002", "a011", "0x1.641abd8ad06afp-1"),
        ("a004", "a007", "0x1.5baa6550ffbaap-1"),
        ("a010", "a004 a007", "0x1.4322eaec52b02p-1"),
        ("a005", "a002 a011", "0x1.423c1641219abp-1"),
        ("a008", "a005 a002 a011", "0x1.327c9d2ec4b11p-1"),
        ("a001", "a010 a004 a007", "0x1.295c47dab25aap-1"),
        ("a006 a000 a003 a009", "a001 a010 a004 a007", "0x1.f3359e71ef6acp-3"),
        ("a008 a005 a002 a011", "a006 a000 a003 a009 a001 a010 a004 a007", "0x1.83d0bd1abf8afp-3"),
    ],
}

# Merge members ("left | right") on the tie-heavy input of
# `_prefs_ties`, where up to eight merges share one similarity.
_TIES_INTERSECTION = [
    "c4 | c4b",
    "c2 | c2b",
    "c3 | c3b",
    "c5 | c5b",
    "c6 | c6b",
    "c4 c4b | c3 c3b",
    "c1 | c1b",
    "c2 c2b | c1 c1b",
    "c5 c5b | c6 c6b",
    "c4 c4b c3 c3b | c5 c5b c6 c6b",
    "e0 | e1",
    "e2 | c2 c2b c1 c1b",
    "c4 c4b c3 c3b c5 c5b c6 c6b | e0 e1",
    "e2 c2 c2b c1 c1b | c4 c4b c3 c3b c5 c5b c6 c6b e0 e1",
]
_TIES_JACCARD = [
    "c1 | c1b",
    "c2 | c2b",
    "c3 | c3b",
    "c4 | c4b",
    "c5 | c5b",
    "c6 | c6b",
    "e0 | e1",
    "e2 | e0 e1",
    "c3 c3b | c4 c4b",
    "c1 c1b | c2 c2b",
    "c5 c5b | c6 c6b",
    "c1 c1b c2 c2b | c5 c5b c6 c6b",
]
PINNED_TIE_MERGES = {
    "intersection": _TIES_INTERSECTION,
    "weighted_intersection": ["c2 | c2b", "c4 | c4b"] + _TIES_INTERSECTION[2:],
    "jaccard": _TIES_JACCARD + [
        "e2 e0 e1 | c3 c3b c4 c4b",
        "c1 c1b c2 c2b c5 c5b c6 c6b | e2 e0 e1 c3 c3b c4 c4b",
    ],
    "vector_jaccard": _TIES_JACCARD + [
        "c3 c3b c4 c4b | c1 c1b c2 c2b c5 c5b c6 c6b",
        "e2 e0 e1 | c3 c3b c4 c4b c1 c1b c2 c2b c5 c5b c6 c6b",
    ],
}
PINNED_TIE_MERGES["weighted_jaccard"] = PINNED_TIE_MERGES["jaccard"]
PINNED_TIE_MERGES["weighted_vector_jaccard"] = PINNED_TIE_MERGES["vector_jaccard"]


def _prefs_ties():
    """Table IV with every user duplicated, plus three empty relations."""
    prefs = _prefs_table_iv()
    prefs.update({c + "b": p for c, p in _prefs_table_iv().items()})
    prefs.update({f"e{i}": {"brand": Poset()} for i in range(3)})
    return prefs


def _pair_scan_merges(attrs, prefs, measure):
    """Reference HAC: score every pair with the scalar measures and rescan
    every live pair per merge; ``(left, right, sim.hex())`` per merge."""
    scalar = {"intersection": sim_i, "jaccard": sim_j, "weighted_intersection": sim_wi,
              "weighted_jaccard": sim_wj}.get(measure, vec_jaccard)

    def rep(members):
        if measure in ("vector_jaccard", "weighted_vector_jaccard"):
            weighted = measure == "weighted_vector_jaccard"
            return {d: tuple_frequencies(members, {c: prefs[c][d] for c in members},
                                         weighted=weighted) for d in attrs}
        return cluster_common_relation(members, prefs, attrs)

    clusters = [(u,) for u in sorted(prefs, key=repr)]
    reps = [rep(c) for c in clusters]

    def sim(i, j):
        return mean_attr_similarity(scalar(reps[i][d], reps[j][d]) for d in attrs)

    sims = {(i, j): sim(i, j) for i, j in combinations(range(len(clusters)), 2)}
    alive, merges = list(range(len(clusters))), []
    while len(alive) > 1:
        i, j = max(combinations(alive, 2), key=sims.__getitem__)
        merges.append((clusters[i], clusters[j], sims[i, j].hex()))
        alive.remove(i)
        alive.remove(j)
        clusters.append(clusters[i] + clusters[j])
        reps.append(rep(clusters[-1]))
        sims.update(((k, len(clusters) - 1), sim(len(clusters) - 1, k)) for k in alive)
        alive.append(len(clusters) - 1)
    return merges


@st.composite
def _tied_users(draw):
    """2-10 users over one or two attributes, drawn from at most five
    profiles, so that duplicated users and empty relations make ties."""
    attrs = ["d0", "d1"][: draw(st.integers(1, 2))]
    profiles = []
    for _ in range(draw(st.integers(1, 5))):
        profile = {}
        for d in attrs:
            pairs, dom = draw(spo_strategy(n_values=7, p_edge=0.6))
            profile[d] = Poset(pairs if draw(st.integers(0, 3)) else (), domain=dom)
        profiles.append(profile)
    picks = draw(st.lists(st.integers(0, len(profiles) - 1), min_size=2, max_size=10))
    return attrs, {f"c{k}": profiles[p] for k, p in enumerate(picks)}


class TestHAC:
    def test_theta_1_is_singletons(self):
        d = cluster_users(["brand"], _prefs_table_iv(), measure="jaccard")
        assert d.theta(1.0) == [(c,) for c in sorted(TABLE_IV_BRAND)]

    def test_merges_are_recorded_with_sims(self):
        d = cluster_users(["brand"], _prefs_table_iv(), measure="jaccard")
        assert len(d.merges) == 5  # all the way to one cluster
        assert all(0 <= m.sim <= 1 for m in d.merges)

    def test_example10_pairs_merge_first(self):
        # The natural pairs (c1,c2), (c3,c4), (c5,c6) are the most similar
        # and must appear as the first three merges.
        d = cluster_users(["brand"], _prefs_table_iv(), measure="jaccard")
        first3 = {frozenset(m.left + m.right) for m in d.merges[:3]}
        assert first3 == {
            frozenset({"c1", "c2"}),
            frozenset({"c3", "c4"}),
            frozenset({"c5", "c6"}),
        }

    def test_example10_cut_merges_u1_u3_before_u2(self):
        # Example 10: θ(t) = {{c1,c2,c5,c6}, {c3,c4}} for 3/11 ≥ t > 0
        # (under weighted Jaccard; sim(U1,U3)=3/11 > sim(U2,U3)=3/12).
        d = cluster_users(["brand"], _prefs_table_iv(), measure="weighted_jaccard")
        part = d.theta(3 / 11 - 1e-9)
        assert sorted(map(sorted, part)) == [["c1", "c2", "c5", "c6"], ["c3", "c4"]]

    def test_partitions_coarsen_as_h_decreases(self):
        d = cluster_users(["brand"], _prefs_table_iv(), measure="jaccard")
        sizes = [len(d.theta(h)) for h in (1.0, 0.7, 0.4, 0.1, 0.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_every_theta_is_a_partition(self):
        d = cluster_users(["brand"], _prefs_table_iv(), measure="vector_jaccard")
        for h in (1.0, 0.8, 0.5, 0.2, 0.0):
            part = d.theta(h)
            flat = [u for cl in part for u in cl]
            assert sorted(flat) == sorted(TABLE_IV_BRAND)

    def test_all_measures_run(self):
        for m in MEASURES:
            d = cluster_users(["brand"], _prefs_table_iv(), measure=m)
            assert len(d.merges) == 5

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            cluster_users(["brand"], _prefs_table_iv(), measure="cosine")

    @pytest.mark.parametrize("gen", [movie, publication], ids=["movie", "publication"])
    def test_dendrogram_merges_are_pinned(self, gen):
        d = build_dendrogram(gen.generate(n_users=12, n_groups=3, n_stream=1))
        got = [(" ".join(m.left), " ".join(m.right), m.sim.hex()) for m in d.merges]
        assert got == PINNED_DENDROGRAMS[gen.__name__.rsplit(".", 1)[1]]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_tie_break_is_pinned(self, measure):
        d = cluster_users(["brand"], _prefs_ties(), measure=measure)
        got = [f"{' '.join(m.left)} | {' '.join(m.right)}" for m in d.merges]
        assert got == PINNED_TIE_MERGES[measure]

    @given(_tied_users())
    @settings(max_examples=60, deadline=None)
    def test_dense_merges_equal_the_pair_scan(self, users):
        attrs, prefs = users
        for m in MEASURES:
            d = cluster_users(attrs, prefs, measure=m)
            got = [(g.left, g.right, g.sim.hex()) for g in d.merges]
            assert got == _pair_scan_merges(attrs, prefs, m), m

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("gen", [movie, publication], ids=["movie", "publication"])
    def test_dense_merges_equal_the_pair_scan_at_24_users(self, gen, measure):
        # Clusters of many members meet here; on movie, adding two parts'
        # weight sums instead of member by member changes the last bit of a
        # weighted-vector sim, which the small drawn inputs do not reach.
        ds = gen.generate(n_users=24, n_groups=3, n_stream=1)
        d = cluster_users(ds.attrs, ds.prefs, measure=measure)
        got = [(g.left, g.right, g.sim.hex()) for g in d.merges]
        assert got == _pair_scan_merges(ds.attrs, ds.prefs, measure)

    def test_merge_sims_do_not_depend_on_hash_seed(self):
        """Every measure sums over sets of string pairs, whose order
        follows the hash seed; the merge similarities must not."""
        script = (
            "from repro.core.hac import cluster_users\n"
            "from repro.datasets import movie, publication\n"
            f"for m in {MEASURES!r}:\n"
            "    for gen in (movie.generate, publication.generate):\n"
            "        ds = gen(n_users=12, n_groups=3, n_stream=1)\n"
            "        d = cluster_users(ds.attrs, ds.prefs, measure=m)\n"
            "        print(m, [s.sim.hex() for s in d.merges])\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] == outs[1]


class TestGetApproxPreferenceTuples:
    """Example 11: three users, threshold1 = 7, threshold2 = 60%."""

    @pytest.fixture()
    def fig3_users(self):
        # Fig. 3a reconstructed so the frequency table (Table V) comes out
        # exactly: (A,T):3/3; (A,S),(L,T),(T,S),(S,L):2/3;
        # (A,L),(L,S),(T,L),(S,T):1/3; (L,A),(T,A),(S,A):0.
        A, L, S, T = "Apple", "Lenovo", "Samsung", "Toshiba"
        dom = (A, L, S, T)
        u1 = Poset([(A, T), (T, S), (S, L)], domain=dom)  # chain A≻T≻S≻L
        u2 = Poset([(A, T), (T, S), (L, T)], domain=dom)  # A≻T≻S, L≻T
        u3 = Poset([(A, T), (S, L), (L, T)], domain=dom)  # A≻T, S≻L≻T
        return {"u1": u1, "u2": u2, "u3": u3}

    def test_table5_frequencies(self, fig3_users):
        # Alg. 3 ranks tuples by this vector.
        freq = tuple_frequencies(list(fig3_users), fig3_users)
        A, L, S, T = "Apple", "Lenovo", "Samsung", "Toshiba"
        assert freq[(A, T)] == pytest.approx(1.0)
        for pair in [(A, S), (L, T), (T, S), (S, L)]:
            assert freq[pair] == pytest.approx(2 / 3), pair
        for pair in [(A, L), (L, S), (T, L), (S, T)]:
            assert freq[pair] == pytest.approx(1 / 3), pair

    def test_example11_result(self, fig3_users):
        A, L, S, T = "Apple", "Lenovo", "Samsung", "Toshiba"
        # Table V's tie order among the 2/3-frequency tuples: (A,S), (L,T),
        # (T,S) then (S,L).
        got = get_approx_preference_tuples(
            list(fig3_users),
            fig3_users,
            threshold1=7,
            threshold2=0.6,
            tie_order=[(A, S), (L, T), (T, S), (S, L)],
        )
        # Common tuple (A,T); approximations (A,S), (L,T), (T,S); plus the
        # transitive closure (L,S); (S,L) rejected (its reverse is already
        # in); the walk stops at (A,L) whose frequency is below 60%.
        assert got.pairs == {(A, T), (A, S), (L, T), (T, S), (L, S)}

    def test_lemma2_property1_superset_of_common(self, fig3_users):
        common = common_relation(fig3_users.values())
        approx = get_approx_preference_tuples(list(fig3_users), fig3_users, threshold2=0.6)
        assert approx.pairs >= common.pairs

    def test_threshold2_one_gives_exactly_common(self, fig3_users):
        common = common_relation(fig3_users.values())
        approx = get_approx_preference_tuples(list(fig3_users), fig3_users, threshold2=1.0)
        assert approx.pairs == common.pairs

    def test_threshold1_zero_still_keeps_common(self, fig3_users):
        common = common_relation(fig3_users.values())
        approx = get_approx_preference_tuples(
            list(fig3_users), fig3_users, threshold1=0, threshold2=0.0
        )
        assert approx.pairs == common.pairs

    def test_result_is_strict_partial_order(self, fig3_users):
        for t2 in (0.0, 0.3, 0.6, 0.9):
            got = get_approx_preference_tuples(list(fig3_users), fig3_users, threshold2=t2)
            assert is_strict_partial_order(got.pairs)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            get_approx_preference_tuples([], {})


class TestTheorems3And4:
    """Random-data checks of P_aU ⊆ P_U and P_aU ∩ P_c ⊆ P_ac."""

    @staticmethod
    def _random_setup(seed):
        rng = np.random.default_rng(seed)
        dom = [f"v{i}" for i in range(6)]
        attrs = ["d0", "d1"]

        def rand_poset():
            order = list(rng.permutation(dom))
            pairs = [
                (order[i], order[j])
                for i in range(len(order))
                for j in range(i + 1, len(order))
                if rng.random() < 0.4
            ]
            return Poset(pairs, domain=dom)

        users = {f"c{k}": {d: rand_poset() for d in attrs} for k in range(4)}
        objects = {
            f"o{i}": tuple(rng.choice(dom) for _ in attrs) for i in range(40)
        }
        return attrs, dom, users, objects

    @pytest.mark.parametrize("seed", range(8))
    def test_theorem3_and_4(self, seed):
        attrs, dom, users, objects = self._random_setup(seed)
        members = list(users)
        domains = {d: dom for d in attrs}
        common = cluster_common_relation(members, users, attrs)
        approx = approx_cluster_relation(members, users, attrs, threshold2=0.5)
        p_u = brute_force_frontier(Profile(attrs, common, domains), objects)
        p_au = brute_force_frontier(Profile(attrs, approx, domains), objects)
        assert p_au <= p_u  # Theorem 3
        for c in members:
            p_c = brute_force_frontier(Profile(attrs, users[c], domains), objects)
            assert p_c <= p_u  # Theorem 2
            # Theorem 4: P_aU ∩ P_c ⊆ P_ac where P_ac is the frontier the
            # approximate pipeline computes for c (filter by aU, verify by c).
            p_ac = {
                o
                for o in p_au
                if not any(
                    Profile(attrs, users[c], domains).dominates(objects[o2], objects[o])
                    for o2 in p_au
                    if o2 != o
                )
            }
            assert (p_au & p_c) <= p_ac
