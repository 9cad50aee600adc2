"""Benchmark of the cvbench command line; run ``python3 perfbench/run.py --help``."""
