"""Benchmark harness: workloads, timing, and the paper's artifacts.

:data:`~repro.bench.tables.ARTIFACTS` holds one row per artifact of the
paper's evaluation (Tables 2 and 3, Figures 5 and 6, the Section 4.3
envelopes, the E11 headroom extension); ``python -m repro tables
<artifact>|all`` prints any of them as markdown.
"""

from repro.bench.frequency import (
    AckReductionSizing,
    CcDivisionSizing,
    ack_reduction_sizing,
    cc_division_sizing,
)
from repro.bench.tables import (
    ARTIFACTS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    Artifact,
    fig5_series,
    fig6_series,
    table2_report,
    table3_report,
)
from repro.bench.timing import TimingResult, measure, measure_throughput
from repro.bench.traces import (
    PacketTrace,
    SessionOutcome,
    run_session,
    survival_probability,
    synthesize_trace,
)
from repro.bench.workloads import (
    PAPER_B,
    PAPER_N,
    PAPER_T,
    QuackWorkload,
    make_workload,
)

__all__ = [
    "measure", "measure_throughput", "TimingResult",
    "make_workload", "QuackWorkload", "PAPER_N", "PAPER_T", "PAPER_B",
    "ARTIFACTS", "Artifact",
    "table2_report", "table3_report", "fig5_series", "fig6_series",
    "PAPER_TABLE2", "PAPER_TABLE3",
    "cc_division_sizing", "ack_reduction_sizing",
    "CcDivisionSizing", "AckReductionSizing",
    "PacketTrace", "SessionOutcome", "synthesize_trace", "run_session",
    "survival_probability",
]
