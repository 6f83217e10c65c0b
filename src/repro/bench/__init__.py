"""Benchmark harness: workloads, timing, and paper-table regeneration."""

from repro.bench.frequency import (
    AckReductionSizing,
    CcDivisionSizing,
    ack_reduction_sizing,
    cc_division_sizing,
)
from repro.bench.tables import (
    PAPER_INTRO,
    PAPER_TABLE2,
    PAPER_TABLE3,
    fig5_series,
    fig6_series,
    format_series,
    format_table2,
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
    "measure",
    "measure_throughput",
    "TimingResult",
    "make_workload",
    "QuackWorkload",
    "PAPER_N",
    "PAPER_T",
    "PAPER_B",
    "table2_report",
    "format_table2",
    "fig5_series",
    "fig6_series",
    "format_series",
    "table3_report",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_INTRO",
    "cc_division_sizing",
    "ack_reduction_sizing",
    "CcDivisionSizing",
    "AckReductionSizing",
    "PacketTrace",
    "SessionOutcome",
    "synthesize_trace",
    "run_session",
    "survival_probability",
]
