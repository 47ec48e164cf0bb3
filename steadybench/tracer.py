"""Per-layer tracing by wrapping the program's entry points.

The program is not edited: while a :class:`Tracer` is active it replaces
methods of the program's classes with timing wrappers and puts them back
on exit. Each wrapper counts calls, inclusive time and the work its layer
reports (rows compared, comparisons, sizes).

Entry points are looked up by name, so a refactor that removes one (say,
``_Buffer`` folded into ``Frontier``) does not break a run: the metrics
that entry point feeds are reported absent (``None``).
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: (module, class, method) -> per-layer metrics it feeds
ENTRY_POINTS = {
    ("repro.core.dominance", "Profile", "compare"): (
        "dominance.compare_calls", "dominance.compare_s", "dominance.rows_per_compare"),
    ("repro.core.dominance", "Profile", "encode"): ("dominance.encode_s",),
    ("repro.core.frontier", "Frontier", "insert"): (
        "frontier.insert_s", "frontier.pu_size_mean", "frontier.pc_size_mean",
        "ftv.filter_s", "ftv.filter_comparisons", "ftv.filter_pass_rate",
        "ftv.verify_s", "ftv.verify_comparisons", "ftv.verify_admit_rate"),
    ("repro.core.frontier", "Frontier", "matrix"): ("frontier.matrix_s", "frontier.matrix_calls"),
    ("repro.core.frontier", "Frontier", "discard"): ("frontier.discard_s", "frontier.discard_calls"),
    ("repro.core.sliding", "_Buffer", "refresh"): (
        "sliding.refresh_s", "sliding.buffer_comparisons", "sliding.buffer_size_mean"),
    ("repro.core.sliding", "FTVSWEngine", "_expire"): (
        "sliding.expire_s", "sliding.mend_comparisons", "sliding.mend_promotions"),
}

#: the per-layer counts that together must make up ``ComparisonCounter.total``
COMPARISON_METRICS = ("ftv.filter_comparisons", "ftv.verify_comparisons",
                      "sliding.buffer_comparisons", "sliding.mend_comparisons")


def _resolve(module: str, cls: str, method: str):
    try:
        owner = getattr(importlib.import_module(module), cls)
    except (ImportError, AttributeError):
        return None, None
    fn = owner.__dict__.get(method)
    return (owner, fn) if callable(fn) else (None, None)


class Tracer:
    """Context manager that wraps every entry point it can find."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._roles: dict[int, str] = {}  # id(frontier) -> "pu" | "pc"
        self._engines: list = []  # keep registered engines alive: ids stay unique
        self._saved: list = []

    def register(self, engine) -> None:
        """Tell cluster frontiers (P_U) from member frontiers (P_c)."""
        self._engines.append(engine)
        for attr, role in (("cluster_frontiers", "pu"), ("user_frontiers", "pc")):
            for fr in getattr(engine, attr, {}).values():
                self._roles[id(fr)] = role

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, key, fn):
        tr = self
        name = key[2]
        if name == "compare":
            def compare(self, frontier, x):
                t0 = time.perf_counter_ns()
                out = fn(self, frontier, x)
                tr.ns["compare"] += time.perf_counter_ns() - t0
                tr.calls["compare"] += 1
                tr.work["compare_rows"] += frontier.shape[0]
                return out
            return compare
        if name == "insert":
            def insert(self, oid, x):
                size = len(self)
                t0 = time.perf_counter_ns()
                out = fn(self, oid, x)
                dt = time.perf_counter_ns() - t0
                tr.ns["insert"] += dt
                role = tr._roles.get(id(self))
                if role is not None:
                    tr.calls[role] += 1
                    tr.ns[role] += dt
                    tr.work[role + "_size"] += size
                    tr.work[role + "_cmp"] += out.n_compared
                    tr.work[role + "_pass"] += bool(out.is_pareto)
                return out
            return insert
        if name == "refresh":
            def refresh(self, *args):
                size = len(self)
                t0 = time.perf_counter_ns()
                n = fn(self, *args)
                tr.ns["refresh"] += time.perf_counter_ns() - t0
                tr.calls["refresh"] += 1
                tr.work["buffer_size"] += size
                tr.work["buffer_cmp"] += n
                return n
            return refresh
        if name == "_expire":
            def expire(self, *args):
                cmp0, dis0 = self.counter.total, len(self.disseminated)
                t0 = time.perf_counter_ns()
                out = fn(self, *args)
                tr.ns["expire"] += time.perf_counter_ns() - t0
                tr.work["mend_cmp"] += self.counter.total - cmp0
                tr.work["mend_promotions"] += len(self.disseminated) - dis0
                return out
            return expire

        def plain(*args, **kwargs):  # encode, matrix, discard: calls and time
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            tr.ns[name] += time.perf_counter_ns() - t0
            tr.calls[name] += 1
            return out
        return plain

    def __enter__(self):
        for key, feeds in ENTRY_POINTS.items():
            owner, fn = _resolve(*key)
            if owner is None:
                self.absent.update(feeds)
                continue
            self._saved.append((owner, key[2], fn))
            setattr(owner, key[2], self._wrap(key, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
        return False

    # -- results ----------------------------------------------------------
    def comparisons(self) -> int:
        """Comparisons attributed to filter, verify, buffer and mend."""
        w = self.work
        return w["pu_cmp"] + w["pc_cmp"] + w["buffer_cmp"] + w["mend_cmp"]

    def misattributed(self, total: int, notes: list[str]) -> bool:
        """True if filter, verify, buffer and mend do not add up to ``total``.

        Call after :meth:`metrics`. A mismatch is noted either way, but
        counts as a fault only when every entry point feeding the four
        counts was found; with one absent the sum cannot be checked.
        """
        got = self.comparisons()
        if got == total:
            return False
        checkable = bool(self._roles) and not self.absent.intersection(COMPARISON_METRICS)
        notes.append(f"trace: attributed {got} of {total} comparisons"
                     + ("" if checkable else " (an entry point is absent)"))
        return checkable

    def metrics(self, speed_factor: float) -> dict[str, float | None]:
        """Layer metrics; times are host-normalised by ``speed_factor``."""
        c, w = self.calls, self.work

        def s(key):
            return self.ns[key] / 1e9 / speed_factor

        def ratio(a, b):
            return a / b if b else 0.0

        roles_known = bool(self._roles)
        out = {
            "dominance.compare_calls": c["compare"],
            "dominance.compare_s": s("compare"),
            "dominance.rows_per_compare": ratio(w["compare_rows"], c["compare"]),
            "dominance.encode_s": s("encode"),
            "frontier.insert_s": s("insert"),
            "frontier.matrix_s": s("matrix"),
            "frontier.matrix_calls": c["matrix"],
            "frontier.discard_s": s("discard"),
            "frontier.discard_calls": c["discard"],
            "frontier.pu_size_mean": ratio(w["pu_size"], c["pu"]),
            "frontier.pc_size_mean": ratio(w["pc_size"], c["pc"]),
            "ftv.filter_s": s("pu"),
            "ftv.filter_comparisons": w["pu_cmp"],
            "ftv.filter_pass_rate": ratio(w["pu_pass"], c["pu"]),
            "ftv.verify_s": s("pc"),
            "ftv.verify_comparisons": w["pc_cmp"],
            "ftv.verify_admit_rate": ratio(w["pc_pass"], c["pc"]),
            "sliding.refresh_s": s("refresh"),
            "sliding.buffer_comparisons": w["buffer_cmp"],
            "sliding.expire_s": s("expire"),
            "sliding.mend_comparisons": w["mend_cmp"],
            "sliding.mend_promotions": w["mend_promotions"],
            "sliding.buffer_size_mean": ratio(w["buffer_size"], c["refresh"]),
        }
        if not roles_known:
            self.absent.update(k for k in out if k.startswith(("ftv.", "frontier.p")))
        return {k: (None if k in self.absent else float(v)) for k, v in out.items()}
