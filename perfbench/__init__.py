"""Benchmark for the repro package: see run.py and BENCHMARK.json."""
