"""Frontier container (the compare-and-update step shared by Algs. 1-5)."""
import numpy as np
import pytest

from repro.core.dominance import X_WINS, Profile
from repro.core.frontier import Frontier
from repro.core.sliding import _Buffer
from repro.posets.poset import Poset


@pytest.fixture()
def profile():
    p = Poset([("a", "b"), ("b", "c")])
    dom = ["a", "b", "c"]
    return Profile(["d0", "d1"], {"d0": p, "d1": p}, {"d0": dom, "d1": dom})


@pytest.fixture()
def frontier(profile):
    return Frontier(profile)


def enc(profile, v):
    return profile.encode(v)


class TestInsert:
    def test_first_object_always_pareto(self, profile, frontier):
        res = frontier.insert("o1", enc(profile, ("b", "b")))
        assert res.is_pareto and res.removed == [] and res.n_compared == 0
        assert frontier.ids == ["o1"]

    def test_dominated_object_rejected(self, profile, frontier):
        frontier.insert("o1", enc(profile, ("a", "a")))
        res = frontier.insert("o2", enc(profile, ("b", "b")))
        assert not res.is_pareto and res.n_compared == 1
        assert frontier.ids == ["o1"]

    def test_dominating_object_evicts(self, profile, frontier):
        frontier.insert("o1", enc(profile, ("b", "b")))
        frontier.insert("o2", enc(profile, ("c", "a")))  # incomparable to o1
        res = frontier.insert("o3", enc(profile, ("a", "a")))
        assert res.is_pareto and set(res.removed) == {"o1", "o2"}
        assert frontier.ids == ["o3"]

    def test_identical_object_coexists(self, profile, frontier):
        frontier.insert("o1", enc(profile, ("a", "b")))
        res = frontier.insert("o2", enc(profile, ("a", "b")))
        assert res.is_pareto and res.removed == []
        assert set(frontier.ids) == {"o1", "o2"}

    def test_incomparable_objects_accumulate(self, profile, frontier):
        frontier.insert("o1", enc(profile, ("a", "c")))
        frontier.insert("o2", enc(profile, ("c", "a")))
        assert len(frontier) == 2

    def test_n_compared_counts_full_frontier(self, profile, frontier):
        for i, v in enumerate([("a", "c"), ("c", "a"), ("b", "b")]):
            frontier.insert(f"o{i}", enc(profile, v))
        res = frontier.insert("ox", enc(profile, ("a", "a")))
        assert res.n_compared == 3


class TestMaintenance:
    def test_discard_present(self, profile, frontier):
        frontier.insert("o1", enc(profile, ("a", "a")))
        assert frontier.discard("o1") is True
        assert len(frontier) == 0

    def test_discard_absent(self, profile, frontier):
        assert frontier.discard("nope") is False

    @staticmethod
    def _step(profile, objs, fr, update, *args):
        """Run one update; the matrix taken before it must be unchanged and
        the new one an ``intp`` (len(ids), K) matrix whose rows encode ids."""
        before = fr.matrix()
        kept = before.copy()
        update(*args)
        assert np.array_equal(before, kept)
        m = fr.matrix()
        assert m.dtype == np.intp and m.shape == (len(fr.ids), profile.n_attrs)
        assert m.tolist() == [enc(profile, objs[o]).tolist() for o in fr.ids]

    def test_rows_stay_contiguous(self, profile):
        """An eviction that keeps several rows, and the appends and
        discards after it, leave the attribute-major rows contiguous,
        which is what the kernel gathers with."""
        buffer = _Buffer(profile)
        for oid, v in [("o1", ("a", "c")), ("o2", ("c", "a")), ("o3", ("c", "c")),
                       ("o4", ("b", "b"))]:
            buffer.refresh(oid, enc(profile, v))
            assert buffer.matrix().T.flags.c_contiguous, oid
        assert buffer.ids == ["o1", "o2", "o4"]  # o4 evicted o3 only
        buffer.discard("o2")
        assert buffer.matrix().T.flags.c_contiguous

    def test_matrix_rows_follow_ids(self, profile, frontier):
        """Row i of ``matrix()`` encodes ``ids[i]`` through evictions, a
        middle discard and buffer refreshes; arrays handed out before an
        update are not written by it."""
        objs = {"o1": ("b", "c"), "o2": ("c", "b"), "o3": ("a", "c"),
                "o4": ("c", "a"), "o5": ("b", "b")}

        def step(fr, update, *args):
            self._step(profile, objs, fr, update, *args)

        buffer = _Buffer(profile)
        for oid, v in objs.items():
            step(frontier, frontier.insert, oid, enc(profile, v))
            step(buffer, buffer.refresh, oid, enc(profile, v))
        assert frontier.ids == buffer.ids == ["o3", "o4", "o5"]  # o1, o2 evicted
        step(frontier, frontier.discard, "o4")
        assert frontier.ids == ["o3", "o5"]
        objs["o6"] = ("a", "a")
        rows = buffer.matrix()
        beaten = np.flatnonzero(profile.compare(rows, enc(profile, objs["o6"])) == X_WINS)
        handed_out = [(buffer.ids[i], rows[i]) for i in beaten]
        step(buffer, buffer.discard, "o4")
        step(buffer, buffer.refresh, "o6", enc(profile, objs["o6"]))
        assert buffer.ids == ["o6"]
        assert [(o, x.tolist()) for o, x in handed_out] == [
            (o, enc(profile, objs[o]).tolist()) for o in ("o3", "o4", "o5")
        ]

    def test_discard_first_last_and_only_row_then_append(self, profile, frontier):
        objs = {"o1": ("a", "c"), "o2": ("b", "b"), "o3": ("c", "a"),  # incomparable
                "o4": ("c", "c"), "o5": ("a", "a")}

        def step(update, *args):
            self._step(profile, objs, frontier, update, *args)

        for oid in ("o1", "o2", "o3"):
            step(frontier.insert, oid, enc(profile, objs[oid]))
        assert frontier.ids == ["o1", "o2", "o3"]
        step(frontier.discard, "o1")  # first row
        assert frontier.ids == ["o2", "o3"]
        step(frontier.discard, "o3")  # last row
        assert frontier.ids == ["o2"]
        step(frontier.discard, "o2")  # only row
        assert frontier.ids == []
        step(frontier.add_unchecked, "o4", enc(profile, objs["o4"]))
        step(frontier.insert, "o5", enc(profile, objs["o5"]))  # evicts o4
        assert frontier.ids == ["o5"]
        step(frontier.discard, "o5")
        step(frontier.insert, "o4", enc(profile, objs["o4"]))
        assert frontier.ids == ["o4"]

    def test_add_unchecked(self, profile, frontier):
        frontier.add_unchecked("o1", enc(profile, ("c", "c")))
        assert frontier.ids == ["o1"]

    def test_matrix_shape(self, profile, frontier):
        assert frontier.matrix().shape == (0, 2)
        frontier.insert("o1", enc(profile, ("a", "a")))
        assert frontier.matrix().shape == (1, 2)
        assert frontier.matrix().dtype == np.intp
