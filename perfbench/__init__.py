"""Benchmark of the IC3 stack; see ``perfbench/run.py``."""
