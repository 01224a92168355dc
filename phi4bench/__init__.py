"""Benchmark of the phi4lab command line: workloads, goldens, tracing and runner.

Run one workload with ``python3 phi4bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``phi4bench/README.md``.
"""
