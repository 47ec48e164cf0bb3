#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 steadybench/run.py --workload append-exact --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` list, measured by wrapping the
program's entry points (see ``tracer.py``). The exit code is 0 only for a
run whose every output matched its oracle.

Each workload does a fixed number of objects, sized to take about the
``run_seconds`` of ``BENCHMARK.json``: per-object cost grows along the
stream, so "as many as fit" would measure a different stream on a faster
host. ``--seconds`` is accepted and does not change the work.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".steadybench_work")
WORKLOADS = ("append-exact", "window-approx", "stream-window")


def _pin_environment() -> None:
    """Re-exec with a fixed hash seed and all temporary files in the checkout.

    Set and iteration order of strings, and with it the pickled size of an
    engine, depend on the hash seed.
    """
    want = {"PYTHONHASHSEED": "0", "TMPDIR": os.path.join(WORK_DIR, "tmp")}
    if all(os.environ.get(k) == v for k, v in want.items()):
        return
    os.makedirs(want["TMPDIR"], exist_ok=True)
    env = dict(os.environ, **want)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def _load_program() -> dict:
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(src, "repro")) or not os.path.isfile(spec_path):
        raise SystemExit(f"steadybench: no program under {src} or no {spec_path}")
    for p in (src, ROOT):
        if p not in sys.path:
            sys.path.insert(0, p)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"steadybench: repro imported from {repro.__file__}, not {src}")
    with open(spec_path) as f:
        return json.load(f)


def _render(spec: dict, res, trace: bool) -> dict:
    metrics, absent = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        source = res.layer if trace else res.metrics
        if m["name"] not in source:
            raise KeyError(f"{res.workload} did not measure {m['name']}")
        value = source[m["name"]]
        if value is None:
            absent.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"], "absent": True}
        else:
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if absent:
        print("absent (entry point not found): " + ", ".join(absent))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    _pin_environment()
    spec = _load_program()

    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.workload == "stream-window":
            from steadybench import streambench

            res = streambench.run(args.seed, run_dir, trace=bool(args.trace))
        else:
            from steadybench import driverbench

            res = driverbench.run(args.workload, args.seed, trace=bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = _render(spec, res, bool(args.trace))
    finite = all(math.isfinite(v) for v in res.metrics.values())
    correct = res.failed == 0 and res.attempted > 0 and finite
    for line in res.notes:
        print(line)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
