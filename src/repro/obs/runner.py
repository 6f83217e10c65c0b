"""Run one scenario with observability enabled; report on the run.

This is the engine behind ``python -m repro trace <scenario>``: it turns
the global observability switchboard on, runs a named scenario -- one of
the protocol experiments (E7-E9) or any chaos plan -- and hands back the
captured trace events, their analysis (:mod:`repro.obs.analyze`), the
metrics snapshot and the scenario's outcome.  :func:`run_report` is the
analysis' report with the **time** section in front: what only the live
run knows -- the wall clock split over the layers of
:data:`repro.obs.layers.LAYERS` (the ones the repo benchmark times), the
ring buffer, the middlebox ledger and the metrics written directly at
their site (everything after it is a function of the events, and
``repro analyze`` prints the same from the exported file).

The runner owns the enable/disable lifecycle so callers can never leak
an enabled tracer into code that did not ask for one; metrics and the
ring buffer are reset on entry so each run's data stands alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro import obs
from repro.chaos.harness import PLANS, run_plan
from repro.errors import ObservabilityError
from repro.obs import perf
from repro.obs.analyze import Section, Table, TraceAnalysis, analyze
from repro.obs.metrics import series_rows
from repro.obs.schema import CORE_COMPONENTS, EVENT_METRICS
from repro.obs.trace import TraceEvent
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sweep.scenarios import EXPERIMENT_SCENARIOS, SCENARIOS

#: The span :func:`run_traced` opens around the scenario; its cumulative
#: time is the run's wall time.
ROOT_SPAN = "run"

#: Families ``Tracer.emit`` derives from an event; every other family in
#: a run's metrics was written directly at its site.
DERIVED_FAMILIES = frozenset(metric.name for metrics in EVENT_METRICS.values()
                             for metric in metrics)


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
    #: The layer recorder's ``path_times()`` (empty when not profiled).
    path_times: dict
    outcome: Any

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
               profile: bool = True) -> TraceRunResult:
    """Run ``scenario`` with tracing and metrics enabled and, with
    ``profile``, the layer recorder installed under one root span.

    ``scenario`` is an experiment name (``cc-division``,
    ``ack-reduction``, ``retransmission``) or a chaos plan name
    (``blackout``, ``corruption``, ...).  Observability is switched off,
    and the recorder's wrappers taken out, before returning, whatever
    happens inside the scenario.
    """
    if scenario not in known_scenarios():
        raise ObservabilityError(
            f"unknown scenario {scenario!r}; have "
            f"{', '.join(known_scenarios())}")

    obs.reset()
    FLOW_ACCOUNTS.reset()
    FLOW_ACCOUNTS.arm()
    if scenario in EXPERIMENT_SCENARIOS:
        run = partial(SCENARIOS[scenario].run, total_bytes=total_bytes,
                      loss_rate=loss, seed=seed)
    else:
        run = partial(run_plan, scenario, seed=seed, total_bytes=total_bytes)
    sink = obs.enable(capacity=capacity)
    try:
        if profile:
            obs.PROFILER.install()
            run = obs.PROFILER.wrap(ROOT_SPAN, run)
        outcome = run()
    finally:
        obs.disable()
        FLOW_ACCOUNTS.disarm()
    path_times = obs.PROFILER.path_times() if profile else {}
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
        path_times=path_times,
        outcome=outcome,
    )


def run_report(result: TraceRunResult) -> list[Section]:
    """time, packets, assistance, coverage, metrics for one run."""
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
    items += perf.profile_items(result.path_times, result.flows["flows"],
                                ROOT_SPAN)
    direct = {name: family
              for name, family in result.metrics["families"].items()
              if name not in DERIVED_FAMILIES}
    if direct:
        items.append(Table(
            "metrics written at their site (no event field holds them)",
            ("series", "value"), series_rows({"families": direct})))
    return [Section("time", items), *result.analysis.report()]
