"""Job entrypoints parse args and emit their tables (smoke scale)."""
import json
import re

import pytest


def _load(name):
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "jobs" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_table11_main(capsys):
    mod = _load("run_table11")
    rc = mod.main(["--users", "8", "--groups", "2", "--stream", "80", "--datasets", "movie"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| dataset | h |" in out
    assert "movie" in out


def test_run_table12_main(capsys):
    mod = _load("run_table12")
    rc = mod.main(["--users", "6", "--groups", "2", "--stream", "80", "--datasets", "publication"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| dataset | W | h |" in out


def test_run_timing_main(capsys):
    mod = _load("run_timing")
    rc = mod.main(
        ["--users", "6", "--groups", "2", "--datasets", "movie", "--n", "100", "200"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Baseline" in out


def test_bench_trajectory_rows(tmp_path, monkeypatch):
    mod = _load("bench_trajectory")
    # 3 workloads x 3 seeds per row; row "b" loses its last run, the second "a" all.
    speeds = iter([1.0, 4.0, 2.0] * 3 + [3.0] * 8)

    def fake_run(checkout, workload, seed, seconds):
        v = next(speeds, None)  # None: the run gave no result
        return v and {"correct": True, "metrics": {"objects_per_s": {"value": v, "unit": "1/s"}}}

    monkeypatch.setattr(mod, "run_once", fake_run)
    out = tmp_path / "bench.json"

    def rows(label):
        rc = mod.main(["--label", label, "--out", str(out)])
        return rc, {r["label"]: r["workloads"] for r in json.loads(out.read_text())}

    rc, got = rows("a")
    assert rc == 0 and list(got["a"]) == ["append-exact", "window-approx", "stream-window"]
    for w in got["a"].values():
        assert w["correct"]
        assert w["metrics"]["objects_per_s"] == {"median": 2.0, "q1": 1.0, "q3": 4.0, "unit": "1/s"}
    rc, got = rows("b")
    assert rc == 1 and got["b"]["append-exact"]["correct"]
    assert not got["b"]["stream-window"]["correct"]
    assert got["b"]["stream-window"]["metrics"]["objects_per_s"]["median"] == 3.0
    rc, got = rows("a")  # same label: replaced, moved last
    assert rc == 1 and list(got) == ["b", "a"]
    assert got["a"]["append-exact"] == {"runs": 3, "correct": False, "metrics": {}}


def test_bench_trajectory_timeout_is_a_failed_run(monkeypatch):
    mod = _load("bench_trajectory")

    def hang(cmd, **kw):
        raise mod.subprocess.TimeoutExpired(cmd, kw["timeout"])

    monkeypatch.setattr(mod.subprocess, "run", hang)
    assert mod.run_once(".", "append-exact", 1, 15) is None


@pytest.mark.usefixtures("spark")
def test_run_streaming_demo_run(spark, capsys):
    mod = _load("run_streaming_demo")
    import argparse

    args = argparse.Namespace(
        users=8, groups=2, stream=60, h=0.6, window=None, batches=2
    )
    rc = mod.run(spark, args)
    assert rc == 0
    out = capsys.readouterr().out
    assert "precision" in out
    assert re.search(r"\[demo\] median ms over 2 micro-batches: triggerExecution \d+, "
                     r"addBatch \d+, walCommit \d+, commitOffsets \d+\n", out)
