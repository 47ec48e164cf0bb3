#!/usr/bin/env python3
"""Steadiness report: run one workload repeatedly and show the spread.

Usage, from the repository root::

    python3 steadybench/steadiness.py --workload append-exact --seeds 1-10

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and IQR / median over
the seeds. It flags a wall-clock metric whose spread exceeds a tenth,
then runs the first seed again and flags a counter that does not repeat
exactly. The exit code is 1 if anything was flagged.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_CLOCK = ("objects_per_s", "arrival_p50_us", "arrival_tail_us",
              "batch_p50_ms", "batch_p75_ms", "setup_s")
COUNTERS = ("comparisons_per_object", "state_bytes_end", "precision", "recall")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "steadybench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs = []
    for seed in args.seeds:
        r = run_once(args.workload, seed, spec["run_seconds"])
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']}", flush=True)

    flags = [f"seed {s}: not correct" for s, r in zip(args.seeds, runs) if not r["correct"]]
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        mark = ""
        if m["name"] in WALL_CLOCK and spread > 0.1:
            mark = "  <-- spread above 0.1"
            flags.append(f"{m['name']}: spread {spread:.3f}")
        print(f"{m['name']:24} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}{mark}")
    again = run_once(args.workload, args.seeds[0], spec["run_seconds"])
    differ = [
        f"{name}: seed {args.seeds[0]} gave {runs[0]['metrics'][name]['value']} "
        f"then {again['metrics'][name]['value']}"
        for name in COUNTERS
        if runs[0]["metrics"][name]["value"] != again["metrics"][name]["value"]
    ]
    print(f"repeat of seed {args.seeds[0]}: counters " + ("differ" if differ else "repeat exactly"))
    flags.extend(differ)
    for line in flags:
        print("FLAG " + line)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
