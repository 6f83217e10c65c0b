"""Benchmark harness: workloads, timing, and the paper's artifacts.

:data:`~repro.bench.tables.ARTIFACTS` holds one row per artifact of the
paper's evaluation (Tables 2 and 3, Figures 5 and 6, the Section 4.3
envelopes, the E11 headroom extension); ``python -m repro tables
<artifact>|all`` prints any of them as markdown.
"""
