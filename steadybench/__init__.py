"""Steady end-to-end and per-layer benchmark of the dissemination engines.

Run ``python3 steadybench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``NOTES.md``.
"""
