"""Layered crawl benchmark: ``python3 perfbench/run.py --workload NAME``."""
