"""Benchmark of the linnik package; run it with `python3 perfbench/run.py`.

BENCHMARK.json at the repository root names its workloads and metrics.
"""
