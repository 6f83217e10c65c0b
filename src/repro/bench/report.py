"""Markdown experiment reports generated from live runs.

``python -m repro report`` (or :func:`full_report`) reruns the
reproduction's experiments on the current machine and emits a
self-contained markdown document in the same shape as EXPERIMENTS.md --
paper value next to measured value for every artifact.  Useful for
checking a new environment, and as the honest record of a run.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import dataclass
from typing import Callable

from repro.bench.frequency import ack_reduction_sizing, cc_division_sizing
from repro.bench.tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    table2_report,
    table3_report,
)
from repro.bench.traces import survival_probability


@dataclass(frozen=True)
class ReportOptions:
    """Effort knobs for report generation."""

    trials: int = 30
    protocol_bytes: int = 500_000
    headroom_trials: int = 8
    include_protocols: bool = True
    include_headroom: bool = True
    include_chaos: bool = True
    include_scale: bool = True
    include_observability: bool = True
    chaos_seed: int = 1
    scale_flows: int = 5_000


def environment_section() -> str:
    return "\n".join([
        "## Environment",
        "",
        f"* Python {sys.version.split()[0]} on {platform.system()} "
        f"{platform.machine()}",
        "* Paper artifact: 1408 lines of C++ on a 2019 MacBook Pro "
        "(2.4 GHz i9); expect 1-2 orders of magnitude slower absolute "
        "times here with matching shapes.",
        "",
    ])


def table2_section(trials: int) -> str:
    rows = table2_report(trials=trials)
    lines = [
        "## Table 2 -- strawmen vs power sums (n=1000, t=20, b=32)",
        "",
        "| scheme | construction (paper / ours) | decoding (paper / ours) "
        "| size bits (paper / ours) |",
        "|---|---|---|---|",
    ]
    for key, row in rows.items():
        paper = PAPER_TABLE2[key]
        ours_decode = (f"{row.decode.mean_us:,.0f} µs" if row.decode
                       else f"~{row.decode_extrapolated_days:.1e} days")
        paper_decode = (f"{paper['decode_us']:,.0f} µs"
                        if "decode_us" in paper
                        else f"~{paper['decode_days']:.0e} days")
        lines.append(
            f"| {row.scheme} "
            f"| {paper['construction_us']:,.1f} µs / "
            f"{row.construction.mean_us:,.0f} µs "
            f"| {paper_decode} / {ours_decode} "
            f"| {paper['size_bits']:,} / {row.size_bits:,} |"
        )
    lines.append("")
    return "\n".join(lines)


def table3_section() -> str:
    lines = [
        "## Table 3 -- collision probability (n=1000)",
        "",
        "| bits | paper | ours |",
        "|---|---|---|",
    ]
    for bits, row in table3_report().items():
        lines.append(f"| {bits} | {row['paper']:.2g} | {row['ours']:.3g} |")
    lines.append("")
    return "\n".join(lines)


def sizing_section() -> str:
    cc = cc_division_sizing()
    ack = ack_reduction_sizing()
    return "\n".join([
        "## Section 4.3 -- frequency envelopes",
        "",
        f"* CC division @ 200 Mbps / 60 ms / 2% loss: "
        f"{cc.packets_per_rtt} packets per RTT, t={cc.threshold}, "
        f"{cc.quack_bytes} B per quACK "
        f"({cc.quack_overhead_bps / 1e3:.1f} kbps overhead).",
        f"* ACK reduction @ every {ack.every_n} packets: "
        f"{ack.quack_bytes} B vs Strawman 1's {ack.strawman1_bytes} B "
        f"({ack.bandwidth_saving_factor:.2f}x saving).",
        "",
    ])


def protocols_section(total_bytes: int) -> str:
    from repro.sidecar.ack_reduction import run_ack_reduction
    from repro.sidecar.cc_division import run_cc_division
    from repro.sidecar.retransmission import run_retransmission

    lines = ["## Section 2 protocols (simulated end to end)", ""]
    base = run_cc_division(total_bytes=total_bytes, sidecar=False)
    side = run_cc_division(total_bytes=total_bytes, sidecar=True)
    lines.append(
        f"* **CC division (E7)**: {base.completion_time:.2f} s end-to-end "
        f"vs {side.completion_time:.2f} s divided "
        f"(**{base.completion_time / side.completion_time:.2f}x**), "
        f"{side.server_sidecar_failures} decode failures.")
    dense = run_ack_reduction(total_bytes=total_bytes, ack_every=2,
                              sidecar=False)
    assisted = run_ack_reduction(total_bytes=total_bytes, ack_every=32,
                                 sidecar=True)
    lines.append(
        f"* **ACK reduction (E8)**: {dense.client_acks_sent} client ACKs "
        f"-> {assisted.client_acks_sent} "
        f"(completion {dense.completion_time:.2f} s -> "
        f"{assisted.completion_time:.2f} s).")
    e2e = run_retransmission(total_bytes=total_bytes, innet_retx=False)
    local = run_retransmission(total_bytes=total_bytes, innet_retx=True,
                               reorder_threshold=64)
    lines.append(
        f"* **In-network retransmission (E9)**: {e2e.completion_time:.2f} s "
        f"end-to-end repair vs {local.completion_time:.2f} s local "
        f"(**{e2e.completion_time / local.completion_time:.2f}x**), "
        f"{local.proxy_retransmissions} proxy repairs.")
    lines.append("")
    return "\n".join(lines)


def headroom_section(trials: int) -> str:
    lines = [
        "## Threshold headroom under bursty loss (E11, extension)",
        "",
        "Survival probability of a 3000-packet session at 2% average "
        "loss, one quACK per 32 packets:",
        "",
        "| t | random loss | bursty loss |",
        "|---|---|---|",
    ]
    for threshold in (5, 10, 20, 40):
        p_random = survival_probability(threshold, 0.02, "random",
                                        trials=trials, n=3000)
        p_bursty = survival_probability(threshold, 0.02, "bursty",
                                        trials=trials, n=3000)
        lines.append(f"| {threshold} | {p_random:.2f} | {p_bursty:.2f} |")
    lines.append("")
    return "\n".join(lines)


def chaos_section(seed: int) -> str:
    from repro.chaos import PLANS, run_plan

    lines = [
        "## Robustness under fault injection (chaos harness)",
        "",
        "Each plan runs the canonical assisted transfer with one fault "
        "injector on the sidecar channel and checks the invariants: all "
        "bytes delivered end-to-end, epochs converged, corruption "
        "classified as wire errors.",
        "",
        "| plan | completed in | epochs | resets | wire errors | "
        "final health | invariants |",
        "|---|---|---|---|---|---|---|",
    ]
    for name in sorted(PLANS):
        result = run_plan(name, seed=seed)
        counters = result.server_counters
        lines.append(
            f"| {name} | {result.duration_s:.2f} s "
            f"| {result.emitter_epoch}/{result.server_epoch} "
            f"| {counters['resets_initiated']} "
            f"| {counters['wire_errors']} "
            f"| {result.health_final.value} "
            f"| {'held' if result.ok else 'VIOLATED'} |")
    lines.append("")
    return "\n".join(lines)


def scale_section(flows: int, seed: int = 1) -> str:
    from repro.sidecar.flowtable import run_scale

    results = [run_scale(flows=flows, tenants=8, packets_per_flow=4,
                         churn_rate=churn, duration_s=1.0, seed=seed,
                         account=True)
               for churn in (0.0, 0.5)]
    lines = [
        "## Multi-tenant flow table at scale",
        "",
        f"One shared flow table driving {flows:,} flows across 8 tenants "
        "under per-tenant memory budgets, with and without churn "
        "(fraction of the population replaced per second):",
        "",
        "| churn | admitted | closed | evicted | shed | resident bytes "
        "| bytes/flow | emit p50 | emit p99 |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for result in results:
        per_flow = (result["ledger_bank_bytes"]
                    / max(result["ledger_flows"], 1))
        lines.append(
            f"| {result['churn_rate']:.1f}/s "
            f"| {result['flows_admitted']:,} "
            f"| {result['flows_closed']:,} "
            f"| {result['flows_evicted']:,} "
            f"| {result['flows_shed']:,} "
            f"| {result['ledger_bank_bytes']:,} "
            f"| {per_flow:.1f} "
            f"| {result['emission_latency_p50_s'] * 1e3:.2f} ms "
            f"| {result['emission_latency_p99_s'] * 1e3:.2f} ms |")
    lines.append("")
    lines.append(
        "Emission latency is coalescing delay only -- time from a flow "
        "coming due to its quACK leaving in a shared batch frame -- so "
        "p99 is bounded by the batch interval (5 ms default).")
    lines.append("")
    return "\n".join(lines)


def observability_section(total_bytes: int, seed: int = 1) -> str:
    from repro.obs.analyze import render_markdown
    from repro.obs.runner import run_report, run_traced

    result = run_traced("cc-division", seed=seed, total_bytes=total_bytes)
    report = render_markdown(run_report(result, top=20))
    return "\n".join([
        "## Observability (one report, `python -m repro trace`)",
        "",
        f"One traced cc-division run ({total_bytes:,} bytes, seed {seed}): "
        f"where the time went, where the packets went, why assistance "
        f"stopped (if it did), what the trace covers, and the metrics.",
        "",
        report.replace("## ", "### "),
        "",
    ])


def full_report(options: ReportOptions | None = None,
                progress: Callable[[str], None] | None = None) -> str:
    """Generate the complete markdown report."""
    options = options if options is not None else ReportOptions()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    sections = ["# Sidecar / quACK reproduction report", ""]
    sections.append(environment_section())
    note("running Table 2 microbenchmarks...")
    sections.append(table2_section(options.trials))
    sections.append(table3_section())
    sections.append(sizing_section())
    if options.include_protocols:
        note("running protocol scenarios (E7-E9)...")
        sections.append(protocols_section(options.protocol_bytes))
    if options.include_headroom:
        note("running threshold-headroom sweep (E11)...")
        sections.append(headroom_section(options.headroom_trials))
    if options.include_chaos:
        note("running chaos plans (fault injection)...")
        sections.append(chaos_section(options.chaos_seed))
    if options.include_scale:
        note("driving the flow table at scale...")
        sections.append(scale_section(options.scale_flows))
    if options.include_observability:
        note("running a traced scenario (observability)...")
        sections.append(observability_section(options.protocol_bytes))
    return "\n".join(sections)
