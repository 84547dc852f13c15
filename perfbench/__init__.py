"""Benchmark harness for fanospin: seeded workloads, correctness gates,
end-to-end timings and a per-module trace.  Entry point: ``run.py``."""
