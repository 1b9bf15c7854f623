"""Extraction benchmark: four golden-checked workloads over the Ray Data
engine, plus a Ray-free traced replay that splits the time by layer.

Run from the repository root::

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 5 --trace 0

See ``run.py`` for the metrics and ``BENCHMARK.json`` for the contract.
"""
