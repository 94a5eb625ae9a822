"""Benchmark of the CDC lake: seeded inputs, three workloads, oracles, tracing.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
