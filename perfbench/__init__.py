"""The repository benchmark: workloads, layer attribution and span tracing.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``WORKLOADS.md`` explains the
workloads and which layer metric should move which end-to-end metric.
"""
