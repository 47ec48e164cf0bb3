"""Unit tests for the strict-partial-order substrate (Def. 1, Def. 6)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.posets.poset import (
    Poset,
    common_relation,
    is_strict_partial_order,
    transitive_closure,
)


def random_spo_pairs(draw, n_values=6, p_edge=0.35):
    """Random strict partial order: random DAG edges over ranked values."""
    n = draw(st.integers(3, n_values))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(st.floats(0, 1)) < p_edge:
                pairs.append((f"v{i}", f"v{j}"))
    return pairs, [f"v{i}" for i in range(n)]


spo_strategy = st.composite(random_spo_pairs)


class TestTransitiveClosure:
    def test_empty(self):
        assert transitive_closure([]) == frozenset()

    def test_chain(self):
        assert transitive_closure([("a", "b"), ("b", "c")]) == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")}
        )

    def test_diamond(self):
        pairs = [("t", "l"), ("t", "r"), ("l", "b"), ("r", "b")]
        closed = transitive_closure(pairs)
        assert ("t", "b") in closed
        assert len(closed) == 5

    def test_idempotent(self):
        pairs = [("a", "b"), ("b", "c"), ("c", "d")]
        once = transitive_closure(pairs)
        assert transitive_closure(once) == once

    @given(spo_strategy())
    @settings(max_examples=60, deadline=None)
    def test_closure_is_transitive(self, data):
        pairs, _ = data
        closed = transitive_closure(pairs)
        for (a, b) in closed:
            for (c, d) in closed:
                if b == c:
                    assert (a, d) in closed


class TestSPOValidation:
    def test_cycle_rejected(self):
        assert not is_strict_partial_order([("a", "b"), ("b", "a")])

    def test_long_cycle_rejected(self):
        assert not is_strict_partial_order([("a", "b"), ("b", "c"), ("c", "a")])

    def test_self_loop_rejected(self):
        assert not is_strict_partial_order([("a", "a")])

    def test_dag_accepted(self):
        assert is_strict_partial_order([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])

    def test_poset_constructor_rejects_cycle(self):
        with pytest.raises(ValueError):
            Poset([("x", "y"), ("y", "x")])

    def test_poset_constructor_rejects_foreign_values(self):
        with pytest.raises(ValueError):
            Poset([("x", "y")], domain=["x"])


class TestPosetStructure:
    def test_prefers_uses_closure(self):
        p = Poset([("a", "b"), ("b", "c")])
        assert p.prefers("a", "c")
        assert not p.prefers("c", "a")

    def test_asymmetry(self):
        p = Poset([("a", "b")])
        assert p.prefers("a", "b") and not p.prefers("b", "a")

    def test_maximal_values_chain(self):
        p = Poset([("a", "b"), ("b", "c")])
        assert p.maximal_values == {"a"}

    def test_maximal_values_with_isolated(self):
        p = Poset([("a", "b")], domain=["a", "b", "z"])
        assert p.maximal_values == {"a", "z"}

    def test_hasse_removes_shortcut(self):
        p = Poset([("a", "b"), ("b", "c"), ("a", "c")])
        assert p.hasse_edges == {("a", "b"), ("b", "c")}

    def test_weights_on_chain(self):
        p = Poset([("a", "b"), ("b", "c")])
        assert p.weight("a") == 1
        assert p.weight("b") == pytest.approx(1 / 2)
        assert p.weight("c") == pytest.approx(1 / 3)

    def test_weight_min_over_maximals(self):
        # a -> l -> s and t -> s: s is 1 Hasse step from maximal t.
        p = Poset([("a", "l"), ("l", "s"), ("t", "s")], domain=["a", "l", "s", "t"])
        assert p.maximal_values == {"a", "t"}
        assert p.weight("s") == pytest.approx(1 / 2)
        assert p.weight("l") == pytest.approx(1 / 2)

    def test_weight_isolated_value_is_maximal(self):
        p = Poset([("a", "b")], domain=["a", "b", "z"])
        assert p.weight("z") == 1

    def test_weight_unknown_value_raises(self):
        with pytest.raises(KeyError):
            Poset([("a", "b")]).weight("nope")

    @given(spo_strategy())
    @settings(max_examples=40, deadline=None)
    def test_hasse_closure_roundtrip(self, data):
        pairs, dom = data
        p = Poset(pairs, domain=dom)
        assert transitive_closure(p.hasse_edges) == p.pairs


class TestCommonRelation:
    def test_theorem1_intersection_is_spo(self):
        # Thm 1: intersection of strict partial orders is one; the Poset
        # constructor would raise otherwise.
        p1 = Poset([("a", "b"), ("b", "c")])
        p2 = Poset([("c", "b"), ("b", "a")])
        assert common_relation([p1, p2]).pairs == frozenset()

    def test_example3_common_cpu_relation(self):
        # Paper Example 3, verbatim.
        c1 = Poset(
            [("dual", "triple"), ("dual", "quad"), ("triple", "single"), ("quad", "single")]
        )
        c2 = Poset([("quad", "triple"), ("triple", "dual"), ("dual", "single")])
        got = common_relation([c1, c2])
        assert got.pairs == {
            ("dual", "single"),
            ("triple", "single"),
            ("quad", "single"),
        }

    @given(spo_strategy(), spo_strategy())
    @settings(max_examples=40, deadline=None)
    def test_common_subset_of_each(self, d1, d2):
        p1 = Poset(d1[0], domain=d1[1])
        p2 = Poset(d2[0], domain=d2[1])
        u = common_relation([p1, p2])
        assert u.pairs <= p1.pairs and u.pairs <= p2.pairs

    @given(st.lists(spo_strategy(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_common_relation_equals_a_closed_poset(self, drawn):
        """The intersection is kept as it is, not closed again (Thm. 1):
        it equals the poset built, and closed, from the same pairs."""
        posets = [Poset(pairs, domain=dom) for pairs, dom in drawn]
        u = common_relation(posets)
        assert u == Poset(u.pairs, domain=u.domain)
        assert u.pairs == frozenset.intersection(*(p.pairs for p in posets))
        assert u.hasse_edges == Poset(u.pairs, domain=u.domain).hasse_edges

    def test_empty_user_set_rejected(self):
        with pytest.raises(ValueError):
            common_relation([])
