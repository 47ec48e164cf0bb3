"""The benchmark's oracles equal the program's brute-force engines.

``BaselineEngine`` and ``BaselineSWEngine`` keep one frontier per user
and are the program's own reference; on small random streams over random
partial orders the oracles must emit the same pairs at the same steps.
Run with ``python3 -m pytest steadybench/tests``.
"""
import os
import random
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for p in (os.path.join(_ROOT, "src"), _ROOT):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.core.baseline import BaselineEngine  # noqa: E402
from repro.core.sliding import BaselineSWEngine  # noqa: E402
from repro.posets.poset import Poset  # noqa: E402

from steadybench.oracles import append_emissions, window_emissions  # noqa: E402


def _random_case(seed, n_users=3, n_attrs=3, dom_size=5, n_objects=40):
    rnd = random.Random(seed)
    attrs = [f"a{k}" for k in range(n_attrs)]
    domains = {d: [f"{d}v{i}" for i in range(dom_size)] for d in attrs}
    prefs = {}
    for u in range(n_users):
        prefs[f"u{u}"] = {}
        for d in attrs:
            order = domains[d][:]
            rnd.shuffle(order)  # pairs follow a random linear extension: acyclic
            pairs = [
                (order[i], order[j])
                for i in range(dom_size)
                for j in range(i + 1, dom_size)
                if rnd.random() < 0.35
            ]
            prefs[f"u{u}"][d] = Poset(pairs, domain=domains[d])
    stream = [
        (f"x{i}", tuple(rnd.choice(domains[d]) for d in attrs)) for i in range(n_objects)
    ]
    return attrs, domains, prefs, stream


def _engine_emissions(engine, stream):
    out, seen = [], set()
    for oid, vals in stream:
        step = {(u, oid) for u in engine.insert(oid, vals)}
        dis = getattr(engine, "disseminated", None)
        if dis is not None:
            step |= dis - seen
            seen |= step
        out.append(step)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_append_oracle_equals_baseline(seed):
    attrs, domains, prefs, stream = _random_case(seed)
    expected = _engine_emissions(BaselineEngine(attrs, prefs, domains), stream)
    assert append_emissions(attrs, domains, prefs, stream) == expected


@pytest.mark.parametrize("window", [1, 2, 3, 5, 8, 60])
@pytest.mark.parametrize("seed", range(8))
def test_window_oracle_equals_baseline_sw(seed, window):
    attrs, domains, prefs, stream = _random_case(100 + seed)
    engine = BaselineSWEngine(attrs, prefs, domains, window=window)
    expected = _engine_emissions(engine, stream)
    assert window_emissions(attrs, domains, prefs, stream, window) == expected


def test_window_oracle_sees_mend_promotions():
    # b is dominated only by a; once a expires (W = 2) b is promoted
    # before c, which does not dominate it, is inserted.
    attrs, domains = ["a0"], {"a0": ["hi", "mid", "lo"]}
    prefs = {"u": {"a0": Poset([("hi", "mid")], domain=domains["a0"])}}
    stream = [("a", ("hi",)), ("b", ("mid",)), ("c", ("lo",))]
    got = window_emissions(attrs, domains, prefs, stream, 2)
    assert got == [{("u", "a")}, set(), {("u", "b"), ("u", "c")}]


def test_window_oracle_rejects_empty_window():
    attrs, domains, prefs, stream = _random_case(0)
    with pytest.raises(ValueError):
        window_emissions(attrs, domains, prefs, stream, 0)
