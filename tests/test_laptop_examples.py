"""Pin the paper's worked examples on the laptop dataset (Tables I/II/VIII,
Examples 1-5 and 15-17). These are the strongest fidelity checks: every
assertion is a number or set the paper states (modulo the two documented
errata, see DESIGN.md §4)."""
import pytest

from repro.core.common import cluster_common_relation, make_exact_clusters
from repro.core.dominance import Profile, brute_force_frontier, dominates_by_closure
from repro.core.sliding import BaselineSWEngine, FTVSWEngine
from repro.datasets import laptop


@pytest.fixture()
def profiles():
    return {
        c: Profile(laptop.ATTRS, prefs, laptop.DOMAINS)
        for c, prefs in laptop.USER_PREFS.items()
    }


@pytest.fixture()
def u_profile():
    rel = cluster_common_relation(["c1", "c2"], laptop.USER_PREFS, laptop.ATTRS)
    return Profile(laptop.ATTRS, rel, laptop.DOMAINS)


def objs(*ids):
    return {o: laptop.PRODUCTS[o] for o in ids}


def first_n(n):
    return objs(*[f"o{i}" for i in range(1, n + 1)])


class TestDominanceExamples:
    def test_example1_c1_prefers_o2_over_o1(self, profiles):
        assert profiles["c1"].dominates(laptop.PRODUCTS["o2"], laptop.PRODUCTS["o1"])

    def test_example1_o1_o3_incomparable_for_c1(self, profiles):
        p = profiles["c1"]
        assert not p.dominates(laptop.PRODUCTS["o1"], laptop.PRODUCTS["o3"])
        assert not p.dominates(laptop.PRODUCTS["o3"], laptop.PRODUCTS["o1"])

    def test_example1_o15_dominated_by_o2_for_c1(self, profiles):
        assert profiles["c1"].dominates(laptop.PRODUCTS["o2"], laptop.PRODUCTS["o15"])

    def test_example1_o15_pareto_for_c2(self, profiles):
        p = profiles["c2"]
        others = first_n(15)
        others.pop("o15")
        assert not any(
            p.dominates(v, laptop.PRODUCTS["o15"]) for v in others.values()
        )

    def test_matrix_kernel_matches_closure_reference(self, profiles):
        for c, p in profiles.items():
            prefs = laptop.USER_PREFS[c]
            for a in laptop.PRODUCTS.values():
                for b in laptop.PRODUCTS.values():
                    assert p.dominates(a, b) == dominates_by_closure(
                        laptop.ATTRS, prefs, a, b
                    )


class TestFrontierExamples:
    def test_example2_frontier_c1(self, profiles):
        assert brute_force_frontier(profiles["c1"], first_n(15)) == {"o2"}

    def test_example2_frontier_c2(self, profiles):
        assert brute_force_frontier(profiles["c2"], first_n(15)) == {"o2", "o3", "o15"}

    def test_frontier_c2_before_o15_paper_erratum(self, profiles):
        # Example 1 claims {o2, o3}; Example 5 and Def. 3 give {o2, o3, o7}
        # (erratum #1 in DESIGN.md).
        assert brute_force_frontier(profiles["c2"], first_n(14)) == {"o2", "o3", "o7"}

    def test_example3_frontier_of_virtual_user(self, u_profile):
        assert brute_force_frontier(u_profile, first_n(15)) == {"o2", "o3", "o10", "o15"}

    def test_example5_frontier_of_U_before_o15(self, u_profile):
        assert brute_force_frontier(u_profile, first_n(14)) == {"o2", "o3", "o7", "o10"}

    def test_example1_o16_dominated_for_U(self, u_profile):
        # o16 is dominated by o2 and o15 w.r.t. U.
        assert u_profile.dominates(laptop.PRODUCTS["o2"], laptop.PRODUCTS["o16"])
        assert u_profile.dominates(laptop.PRODUCTS["o15"], laptop.PRODUCTS["o16"])


class TestBaselineEngine:
    def test_streaming_matches_paper_frontiers(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        for i in range(1, 16):
            eng.insert(f"o{i}", laptop.PRODUCTS[f"o{i}"])
        assert eng.frontier_of("c1") == {"o2"}
        assert eng.frontier_of("c2") == {"o2", "o3", "o15"}

    def test_target_users_of_each_object(self):
        # Example 2: C_{o2} = {c1, c2}; o3 and o15 target only c2.
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        targets = {}
        for i in range(1, 17):
            oid = f"o{i}"
            targets[oid] = eng.insert(oid, laptop.PRODUCTS[oid])
        assert targets["o2"] == {"c1", "c2"}
        assert targets["o15"] == {"c2"}
        assert targets["o16"] == set()

    def test_incremental_equals_brute_force_at_every_step(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        profiles = {
            c: Profile(laptop.ATTRS, p, laptop.DOMAINS)
            for c, p in laptop.USER_PREFS.items()
        }
        seen = {}
        for i in range(1, 17):
            oid = f"o{i}"
            seen[oid] = laptop.PRODUCTS[oid]
            eng.insert(oid, laptop.PRODUCTS[oid])
            for c in laptop.USER_PREFS:
                assert eng.frontier_of(c) == brute_force_frontier(profiles[c], seen), oid

    def test_comparisons_are_counted(self):
        eng = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        for i in range(1, 16):
            eng.insert(f"o{i}", laptop.PRODUCTS[f"o{i}"])
        assert eng.counter.total > 0
        assert set(eng.counter.by_stage) == {"user"}


class TestFilterThenVerifyExample5:
    @pytest.fixture()
    def ftv(self):
        clusters = make_exact_clusters([["c1", "c2"]], laptop.USER_PREFS, laptop.ATTRS)
        return FTVSWEngine(laptop.ATTRS, clusters, laptop.USER_PREFS, laptop.DOMAINS)

    def test_trace_matches_example5(self, ftv):
        for i in range(1, 15):
            ftv.insert(f"o{i}", laptop.PRODUCTS[f"o{i}"])
        assert ftv.cluster_frontier_of(0) == {"o2", "o3", "o7", "o10"}
        assert ftv.frontier_of("c2") == {"o2", "o3", "o7"}
        # o15 arrives: replaces o7 in P_U and in P_c2; C_{o15} = {c2}.
        targets = ftv.insert("o15", laptop.PRODUCTS["o15"])
        assert targets == {"c2"}
        assert ftv.cluster_frontier_of(0) == {"o2", "o3", "o10", "o15"}
        assert ftv.frontier_of("c1") == {"o2"}
        assert ftv.frontier_of("c2") == {"o2", "o3", "o15"}
        # o16: filtered at the cluster stage, no target users.
        targets = ftv.insert("o16", laptop.PRODUCTS["o16"])
        assert targets == set()

    def test_ftv_matches_baseline_targets_objectwise(self, ftv):
        base = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        for i in range(1, 17):
            oid = f"o{i}"
            assert ftv.insert(oid, laptop.PRODUCTS[oid]) == base.insert(
                oid, laptop.PRODUCTS[oid]
            ), oid

    def test_theorem2_cluster_frontier_superset(self, ftv):
        for i in range(1, 17):
            oid = f"o{i}"
            ftv.insert(oid, laptop.PRODUCTS[oid])
            pu = ftv.cluster_frontier_of(0)
            assert ftv.frontier_of("c1") <= pu
            assert ftv.frontier_of("c2") <= pu

    def test_ftv_does_less_cluster_filter_work_than_baseline_total(self, ftv):
        base = BaselineSWEngine(laptop.ATTRS, laptop.USER_PREFS, laptop.DOMAINS)
        for i in range(1, 17):
            oid = f"o{i}"
            ftv.insert(oid, laptop.PRODUCTS[oid])
            base.insert(oid, laptop.PRODUCTS[oid])
        assert ftv.counter.by_stage["user"] < base.counter.by_stage["user"]

    def test_duplicate_user_in_two_clusters_rejected(self):
        clusters = make_exact_clusters(
            [["c1", "c2"], ["c2"]], laptop.USER_PREFS, laptop.ATTRS
        )
        for window in (None, 5):  # append-only and windowed alike
            with pytest.raises(ValueError):
                FTVSWEngine(
                    laptop.ATTRS, clusters, laptop.USER_PREFS, laptop.DOMAINS, window=window
                )
