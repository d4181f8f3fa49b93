"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

See ``benchmarks/perf/README.md`` for the workload and metric catalog
and ``python -m benchmarks.perf --help`` for the command line.
"""
