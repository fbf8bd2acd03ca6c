"""Benchmark for tcmc: compile/verify wall time, modeled cycles and per-layer time.

Run it with `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>` from the repository root; README.md in this directory describes
the workloads and metrics.
"""
