"""Dominance kernels: matrix Profile vs raw closure vs CPS embedding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import (
    EQUAL,
    ROW_WINS,
    X_WINS,
    ComparisonCounter,
    Encoder,
    Profile,
    ProfileStack,
    brute_force_frontier,
    dominates_by_closure,
)
from repro.posets.cps import cps_embedding, cps_prefers
from repro.posets.poset import Poset

from tests.test_posets import spo_strategy


def _profile_from(data1, data2):
    attrs = ["d0", "d1"]
    p0 = Poset(data1[0], domain=data1[1])
    p1 = Poset(data2[0], domain=data2[1])
    prefs = {"d0": p0, "d1": p1}
    domains = {"d0": sorted(p0.domain), "d1": sorted(p1.domain)}
    return attrs, prefs, domains


class TestKernelEquivalence:
    @given(spo_strategy(), spo_strategy(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matrix_equals_closure_reference(self, d0, d1, seed):
        attrs, prefs, domains = _profile_from(d0, d1)
        profile = Profile(attrs, prefs, domains)
        rng = np.random.default_rng(seed)
        objs = [
            (rng.choice(domains["d0"]), rng.choice(domains["d1"])) for _ in range(8)
        ]
        for a in objs:
            for b in objs:
                assert profile.dominates(a, b) == dominates_by_closure(
                    attrs, prefs, a, b
                ), (a, b)

    @given(spo_strategy(), spo_strategy(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matrix_equals_cps_embedding(self, d0, d1, seed):
        """Object dominance via per-attribute CPS coordinates matches the
        matrix kernel — the paper's CPS substrate is interchangeable."""
        attrs, prefs, domains = _profile_from(d0, d1)
        profile = Profile(attrs, prefs, domains)
        coords = {d: cps_embedding(prefs[d]) for d in attrs}
        rng = np.random.default_rng(seed)
        objs = [
            (rng.choice(domains["d0"]), rng.choice(domains["d1"])) for _ in range(8)
        ]

        def cps_dominates(a, b):
            strict = False
            for k, d in enumerate(attrs):
                if a[k] == b[k]:
                    continue
                if cps_prefers(coords[d], a[k], b[k]):
                    strict = True
                else:
                    return False
            return strict

        for a in objs:
            for b in objs:
                assert profile.dominates(a, b) == cps_dominates(a, b), (a, b)


@st.composite
def profile_rows_and_object(draw):
    """1-4 attributes with independently sized (and ordered) domains, a
    frontier of 0-20 rows drawn from a small pool (so rows repeat), and an
    object that may equal some of them."""
    attrs = [f"d{k}" for k in range(draw(st.integers(1, 4)))]
    prefs, domains = {}, {}
    for d in attrs:
        pairs, dom = draw(spo_strategy())
        prefs[d] = Poset(pairs, domain=dom)
        domains[d] = draw(st.permutations(dom))
    value = st.tuples(*(st.sampled_from(domains[d]) for d in attrs))
    pool = draw(st.lists(value, min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=20))
    x = draw(st.one_of(st.sampled_from(pool), value))
    return attrs, prefs, domains, rows, x


@given(profile_rows_and_object())
@settings(max_examples=150, deadline=None)
def test_compare_masks_equal_closure_row_by_row(case):
    attrs, prefs, domains, rows, x = case
    profile = Profile(attrs, prefs, domains)
    frontier = np.array([profile.encode(r) for r in rows], dtype=np.int32)
    code = profile.compare(frontier.reshape(len(rows), len(attrs)), profile.encode(x))
    assert code.size == len(rows)
    assert (code == ROW_WINS).tolist() == [dominates_by_closure(attrs, prefs, r, x) for r in rows]
    assert (code == X_WINS).tolist() == [dominates_by_closure(attrs, prefs, x, r) for r in rows]
    assert (code == EQUAL).tolist() == [r == x for r in rows]


@given(profile_rows_and_object(), st.data())
@settings(max_examples=150, deadline=None)
def test_compare_2d_equals_1d_row_by_row(case, data):
    """A ``(c, K)`` object matrix gives ``(c, m)`` codes whose row ``i``
    equals the 1-D compare of object ``i``, for all three masks."""
    attrs, prefs, domains, rows, x = case
    value = st.tuples(*(st.sampled_from(domains[d]) for d in attrs))
    objs = data.draw(st.lists(st.one_of(st.sampled_from(rows + [x]), value), max_size=8))
    profile = Profile(attrs, prefs, domains)
    frontier = np.array([profile.encode(r) for r in rows], dtype=np.int32)
    frontier = frontier.reshape(len(rows), len(attrs))
    X = np.array([profile.encode(o) for o in objs], dtype=np.int32).reshape(len(objs), len(attrs))
    code = profile.compare(frontier, X)
    assert code.shape == (len(objs), len(rows))
    assert code.size == len(objs) * len(rows)
    for i in range(len(objs)):
        one = profile.compare(frontier, X[i])
        for mask in (ROW_WINS, X_WINS, EQUAL):
            assert (code[i] == mask).tolist() == (one == mask).tolist(), (i, mask)


def _spo_over(data, dom):
    """A random strict partial order over ``dom``: DAG edges along a
    random ranking of its values."""
    rank = data.draw(st.permutations(dom))
    pairs = [(rank[i], rank[j]) for i in range(len(rank)) for j in range(i + 1, len(rank))
             if data.draw(st.booleans())]
    return Poset(pairs, domain=dom)


@given(profile_rows_and_object(), st.data())
@settings(max_examples=100, deadline=None)
def test_cached_code_rows_equal_closure(case, data):
    """Two profiles share one encoder and answer from cached code rows:
    objects repeat and alternate across the profiles, an equal-valued
    distinct array stands in for an object, and ``x`` is 1-D or
    ``(c, K)``; every answer equals the closure check. A writeable ``x``,
    or a read-only view of writeable memory, changed in place between two
    compares is answered for its new values."""
    attrs, prefs, domains, rows, x = case
    enc = Encoder(attrs, domains)
    other = {d: _spo_over(data, domains[d]) for d in attrs}
    profiles = [(Profile(attrs, prefs, domains, enc), prefs),
                (Profile(attrs, other, domains, enc), other)]
    frontier = np.array([enc.encode(r) for r in rows], dtype=np.intp)
    frontier = frontier.reshape(len(rows), len(attrs))
    value = st.tuples(*(st.sampled_from(domains[d]) for d in attrs))
    objs = data.draw(st.lists(st.one_of(st.sampled_from(rows + [x]), value),
                              min_size=2, max_size=6))
    encoded = [enc.encode(o) for o in objs]

    def check(k, x_arr, x_objs):
        """Profile ``k`` on ``x_arr``, whose rows hold ``x_objs``."""
        profile, p = profiles[k]
        code = profile.compare(frontier, x_arr).reshape(len(x_objs), len(rows))
        for obj, c in zip(x_objs, code):
            assert (c == 1).tolist() == [dominates_by_closure(attrs, p, r, obj) for r in rows]
            assert (c == 2).tolist() == [dominates_by_closure(attrs, p, obj, r) for r in rows]

    order = data.draw(st.lists(st.sampled_from(range(len(objs))), min_size=1, max_size=8))
    for i in order:
        for k in (0, 0, 1, 0):  # the same object twice, then across profiles
            check(k, encoded[i], objs[i:i + 1])
        check(1, enc.encode(objs[i]), objs[i:i + 1])  # equal values, another array
    frozen = np.array(encoded)
    frozen.setflags(write=False)
    for k in (0, 0, 1, 0):
        check(k, frozen, objs)

    w = np.array(encoded[0])
    view = w[:]
    view.setflags(write=False)
    matrix = np.array(encoded)
    for k in (0, 1):
        for arr in (w, view):
            check(k, arr, objs[:1])
            w[:] = encoded[1]
            check(k, arr, objs[1:2])
            w[:] = encoded[0]
        check(k, matrix, objs)
        matrix[:] = matrix[::-1].copy()
        check(k, matrix, objs[::-1])
        matrix[:] = matrix[::-1].copy()


@given(profile_rows_and_object(), st.data())
@settings(max_examples=100, deadline=None)
def test_profile_stack_rows_equal_profile_compare(case, data):
    """Each row of a stacked compare is the code ``Profile.compare`` gives
    for the profile it names: one object against the frontier under each
    chosen profile (``(H, m)``), and each row of an object matrix under
    its own profile (``(C, m)``, paired). Profiles repeat, the frontier
    may be empty, and every profile's table is a view of the stack."""
    attrs, prefs, domains, rows, x = case
    enc = Encoder(attrs, domains)
    relations = [prefs] + [{d: _spo_over(data, domains[d]) for d in attrs}
                           for _ in range(data.draw(st.integers(0, 3)))]
    profiles = [Profile(attrs, p, domains, enc) for p in relations]
    stack = ProfileStack(profiles)
    assert all(np.shares_memory(p._table, stack.tables) for p in profiles)
    frontier = np.array([enc.encode(r) for r in rows], dtype=np.intp)
    frontier = frontier.reshape(len(rows), len(attrs))
    which = data.draw(st.lists(st.sampled_from(range(len(profiles))), max_size=6))
    value = st.tuples(*(st.sampled_from(domains[d]) for d in attrs))
    objs = [data.draw(st.one_of(st.sampled_from(rows + [x]), value)) for _ in which]
    X = np.array([enc.encode(o) for o in objs], dtype=np.intp).reshape(len(objs), len(attrs))

    codes = stack.compare(which, frontier, enc.encode(x))
    assert codes.shape == (len(which), len(rows))
    for k, h in enumerate(which):
        assert codes[k].tolist() == profiles[h].compare(frontier, enc.encode(x)).tolist()
    paired = stack.compare(which, frontier, X)
    assert paired.shape == (len(which), len(rows))
    for k, h in enumerate(which):
        assert paired[k].tolist() == profiles[h].compare(frontier, X[k]).tolist()


class TestProfileBasics:
    def _simple(self):
        p = Poset([("hi", "lo")])
        return Profile(["d0", "d1"], {"d0": p, "d1": p}, {"d0": ["hi", "lo"], "d1": ["hi", "lo"]})

    def test_identical_objects_do_not_dominate(self):
        pr = self._simple()
        assert not pr.dominates(("hi", "lo"), ("hi", "lo"))

    def test_strict_on_one_equal_on_other(self):
        pr = self._simple()
        assert pr.dominates(("hi", "lo"), ("lo", "lo"))

    def test_conflicting_attrs_incomparable(self):
        pr = self._simple()
        assert not pr.dominates(("hi", "lo"), ("lo", "hi"))
        assert not pr.dominates(("lo", "hi"), ("hi", "lo"))

    def test_compare_masks_partition(self):
        pr = self._simple()
        F = np.vstack([pr.encode(v) for v in [("hi", "hi"), ("lo", "lo"), ("hi", "lo")]])
        code = pr.compare(F, pr.encode(("hi", "lo")))
        assert code.size == 3
        assert (code == ROW_WINS).tolist() == [True, False, False]
        assert (code == X_WINS).tolist() == [False, True, False]
        assert (code == EQUAL).tolist() == [False, False, True]

    def test_empty_frontier(self):
        pr = self._simple()
        code = pr.compare(np.zeros((0, 2), dtype=np.int32), pr.encode(("hi", "lo")))
        assert code.size == 0 and not (code == ROW_WINS).any()

    def test_encode_unknown_value_raises(self):
        pr = self._simple()
        with pytest.raises(KeyError):
            pr.encode(("hi", "nope"))

    def test_brute_force_frontier_tiny(self):
        pr = self._simple()
        objs = {"a": ("hi", "hi"), "b": ("lo", "lo"), "c": ("hi", "lo")}
        assert brute_force_frontier(pr, objs) == {"a"}

    def test_brute_force_keeps_identical_objects(self):
        pr = self._simple()
        objs = {"a": ("hi", "hi"), "b": ("hi", "hi")}
        assert brute_force_frontier(pr, objs) == {"a", "b"}


class TestComparisonCounter:
    def test_accumulates_by_stage(self):
        c = ComparisonCounter()
        c.add("user", 3)
        c.add("cluster", 2)
        c.add("user", 1)
        assert c.total == 6
        assert c.by_stage == {"user": 4, "cluster": 2}
