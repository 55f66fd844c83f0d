"""Benchmark of rrcflab: the registry, inversions and kernels workloads,
timed from outside the package.  Run it with ``python3 perfbench/run.py``."""
