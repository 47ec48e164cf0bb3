"""Add one row to the benchmark trajectory file, ``BENCH_steadybench.json``.

Usage: python jobs/bench_trajectory.py --label LABEL [--checkout DIR] [--out FILE]

Runs ``steadybench/run.py --trace 0`` of checkout DIR (default: this
repository) once for each workload of its ``BENCHMARK.json`` and each of
seeds 1-3, one run at a time, so that every row covers the same runs. It
then writes one row to FILE (default: ``BENCH_steadybench.json`` here): the label,
the checkout's commit (``-dirty`` if it has uncommitted edits), the host,
and per workload whether every run was correct, plus each end-to-end
metric's median and quartiles over the seeds. A row with the same label
is replaced; other rows are kept. A run that exits non-zero, runs past
the timeout, or whose last line is not a JSON result, counts as not
correct and adds no values.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
TIMEOUT_S = 900


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in ``checkout``; its JSON result, or None."""
    cmd = [sys.executable, os.path.join(checkout, "steadybench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: no result after {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return result


def summarise(runs: list[dict | None]) -> dict:
    """Median and quartiles per metric over the runs of one workload."""
    ok = [r for r in runs if r is not None]
    metrics = {}
    for name in (ok[0]["metrics"] if ok else ()):
        values = [r["metrics"][name]["value"] for r in ok]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        metrics[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": ok[0]["metrics"][name]["unit"]}
    return {"runs": len(runs),
            "correct": len(ok) == len(runs) and all(r["correct"] for r in ok),
            "metrics": metrics}


def commit_of(checkout: str) -> str | None:
    """HEAD of the checkout, marked ``-dirty`` if tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", default=ROOT)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_steadybench.json"))
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(checkout, workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {'ok' if runs[-1] else 'failed'}", flush=True)
        workloads[workload] = summarise(runs)
    row = {"label": args.label, "commit": commit_of(checkout), "seeds": list(SEEDS),
           "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                   f"{platform.python_version()}",
           "workloads": workloads}

    rows = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            rows = json.load(f)
    rows = [r for r in rows if r["label"] != args.label] + [row]
    with open(args.out, "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
