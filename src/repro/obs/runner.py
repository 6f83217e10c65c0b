"""Run one scenario with observability enabled; report on the run.

This is the engine behind ``python -m repro trace <scenario>``: it turns
the global observability switchboard on, runs a named scenario -- one of
the protocol experiments (E7-E9) or any chaos plan -- and hands back the
captured trace events, their analysis (:mod:`repro.obs.analyze`), the
metrics snapshot and the scenario's outcome.  :func:`run_report` is the
analysis' report with the **time** section in front: what only the live
run knows -- the wall clock, the ring buffer, the middlebox ledger and
the metrics written directly at their site (everything after it is a
function of the events, and ``repro analyze`` prints the same from the
exported file).

The runner owns the enable/disable lifecycle so callers can never leak
an enabled tracer into code that did not ask for one; metrics and the
ring buffer are reset on entry so each run's data stands alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro import obs
from repro.chaos import PLANS, run_plan
from repro.errors import ObservabilityError
from repro.obs import perf
from repro.obs.analyze import Section, Table, TraceAnalysis, analyze
from repro.obs.metrics import series_rows
from repro.obs.schema import CORE_COMPONENTS
from repro.obs.trace import TraceEvent
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sweep.scenarios import EXPERIMENT_SCENARIOS, SCENARIOS

#: The span :func:`run_traced` opens around the scenario.  Its cumulative
#: time is the run's wall time and its self time the part no named span
#: covers, so the attributed share needs no clock of its own.
ROOT_SPAN = "run"


def known_scenarios() -> tuple[str, ...]:
    """Every name :func:`run_traced` accepts (experiments + chaos plans)."""
    return EXPERIMENT_SCENARIOS + tuple(sorted(PLANS))


@dataclass
class TraceRunResult:
    """One traced run: events, their analysis, metrics, scenario output."""

    scenario: str
    seed: int
    events: list[TraceEvent]
    events_emitted: int
    events_dropped: int
    analysis: TraceAnalysis
    metrics: dict
    #: The middlebox ledger (``FLOW_ACCOUNTS.snapshot()``) of the run.
    flows: dict
    outcome: Any

    @cached_property
    def profile(self) -> dict:
        """The run's :func:`repro.obs.perf.profile_snapshot`, ledger
        included.  Read off the global profiler: take it before the next
        traced run resets that."""
        return perf.profile_snapshot(
            obs.PROFILER, scenario=self.scenario, seed=self.seed,
            flows=self.flows if self.flows["flows"] else None)

    def missing_core_components(self) -> list[str]:
        """Core components that produced no events (should be empty).

        ``quack`` events are owed only once a quACK was emitted: a
        session that never negotiated (the ``downgrade-strip`` plan
        strips every HELLO) emits and decodes no quACK by design.
        """
        present = self.analysis.components
        emitted = "sidecar_quacks_emitted_total" in self.metrics["families"]
        return [name for name in CORE_COMPONENTS
                if not present.get(name) and (name != "quack" or emitted)]


def run_traced(scenario: str, *, seed: int = 1,
               total_bytes: int = 200_000, loss: float = 0.02,
               capacity: int = 65536,
               profile: bool = True,
               allocations: bool = False) -> TraceRunResult:
    """Run ``scenario`` with tracing/metrics/profiling enabled.

    ``scenario`` is an experiment name (``cc-division``,
    ``ack-reduction``, ``retransmission``) or a chaos plan name
    (``blackout``, ``corruption``, ...).  ``allocations`` additionally
    tracks per-span allocation deltas via ``tracemalloc`` (slow; only
    for ``repro trace --alloc``).  Observability is switched off again
    before returning, whatever happens inside the scenario.
    """
    if scenario not in known_scenarios():
        raise ObservabilityError(
            f"unknown scenario {scenario!r}; have "
            f"{', '.join(known_scenarios())}")

    obs.reset()
    FLOW_ACCOUNTS.reset()
    FLOW_ACCOUNTS.arm()
    sink = obs.enable(capacity=capacity, profile=profile,
                      allocations=allocations)
    try:
        with obs.PROFILER.span(ROOT_SPAN):
            if scenario in EXPERIMENT_SCENARIOS:
                outcome = SCENARIOS[scenario].run(
                    total_bytes=total_bytes, loss_rate=loss, seed=seed)
            else:
                outcome = run_plan(scenario, seed=seed,
                                   total_bytes=total_bytes)
    finally:
        obs.disable()
        FLOW_ACCOUNTS.disarm()
    events = sink.events
    analysis = analyze(events)
    # Coverage is itself a metric (direct: a tree and a missing reason are
    # properties of the whole trace, not fields of any one event).
    for root in analysis.spans.roots:
        obs.count("trace_packets_total",
                  tree="complete" if root.complete else "incomplete")
    for *_step, reason in analysis.transitions:
        obs.count("trace_health_transitions_total",
                  cause="recorded" if reason else "missing")
    return TraceRunResult(
        scenario=scenario,
        seed=seed,
        events=events,
        events_emitted=sink.emitted,
        events_dropped=sink.dropped,
        analysis=analysis,
        metrics=obs.METRICS.snapshot(),
        flows=FLOW_ACCOUNTS.snapshot(),
        outcome=outcome,
    )


def run_report(result: TraceRunResult, top: int) -> list[Section]:
    """time, packets, assistance, coverage, metrics for one run; the
    time section lists the ``top`` heaviest call paths."""
    ratio = (result.events_dropped / result.events_emitted
             if result.events_emitted else 0.0)
    items: list = [
        f"scenario: {result.scenario} (seed {result.seed})",
        f"trace: {len(result.events)} events buffered "
        f"({result.events_emitted} emitted, {result.events_dropped} "
        f"dropped by the ring, drop ratio {ratio:.4f})"]
    if result.events_dropped:
        items.append(
            f"WARNING: ring buffer truncated the trace -- dropped/emitted "
            f"= {result.events_dropped}/{result.events_emitted} "
            f"({ratio:.1%}); the oldest events are gone and the sections "
            f"below are incomplete (raise --capacity)")
    missing = result.missing_core_components()
    if missing:
        items.append(f"WARNING: no events from: {', '.join(missing)}")
    items += perf.profile_items(result.profile, ROOT_SPAN, top)
    derived = result.analysis.metrics["families"]
    direct = {name: family
              for name, family in result.metrics["families"].items()
              if name not in derived}
    if direct:
        items.append(Table(
            "metrics written at their site (no event field holds them)",
            ("series", "value"), series_rows({"families": direct})))
    return [Section("time", items), *result.analysis.report()]
