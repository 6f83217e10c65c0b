"""Run one scenario with observability enabled; collect trace + metrics.

This is the engine behind ``python -m repro trace <scenario>``: it turns
the global observability switchboard on, runs a named scenario -- one of
the protocol experiments (E7-E9) or any chaos plan -- and hands back the
captured trace events, the metrics snapshot, and a rendered summary.

The runner owns the enable/disable lifecycle so callers can never leak
an enabled tracer into code that did not ask for one; metrics and the
ring buffer are reset on entry so each run's data stands alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.chaos import PLANS, run_plan
from repro.errors import ObservabilityError
from repro.obs.schema import CORE_COMPONENTS
from repro.obs.trace import TraceEvent, component_tally, format_component_tally
from repro.sweep.scenarios import EXPERIMENT_SCENARIOS, SCENARIOS


def known_scenarios() -> tuple[str, ...]:
    """Every name :func:`run_traced` accepts (experiments + chaos plans)."""
    return EXPERIMENT_SCENARIOS + tuple(sorted(PLANS))


@dataclass
class TraceRunResult:
    """One traced run: the events, the metrics, and the scenario output."""

    scenario: str
    seed: int
    events: list[TraceEvent]
    events_emitted: int
    events_dropped: int
    metrics: dict
    metrics_text: str
    outcome: Any

    def components(self) -> dict[str, int]:
        """Event counts by component prefix (link/transport/quack/...)."""
        return component_tally(self.events)

    def missing_core_components(self) -> list[str]:
        """Core components that produced no events (should be empty).

        ``quack`` events are owed only once the trace holds a
        ``sidecar.quack_emit``: a session that never negotiated (the
        ``downgrade-strip`` plan strips every HELLO) emits and decodes
        no quACK by design.
        """
        present = self.components()
        quack_emitted = any(event.type == "sidecar.quack_emit"
                            for event in self.events)
        return [name for name in CORE_COMPONENTS
                if not present.get(name)
                and (name != "quack" or quack_emitted)]


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
    for ``repro profile --alloc``).  Observability is switched off
    again before returning, whatever happens inside the scenario.
    """
    if scenario not in known_scenarios():
        raise ObservabilityError(
            f"unknown scenario {scenario!r}; have "
            f"{', '.join(known_scenarios())}")

    obs.reset()
    sink = obs.enable(capacity=capacity, profile=profile,
                      allocations=allocations)
    try:
        if scenario in EXPERIMENT_SCENARIOS:
            outcome = SCENARIOS[scenario].run(
                total_bytes=total_bytes, loss_rate=loss, seed=seed)
        else:
            outcome = run_plan(scenario, seed=seed, total_bytes=total_bytes)
    finally:
        obs.disable()
    return TraceRunResult(
        scenario=scenario,
        seed=seed,
        events=sink.events,
        events_emitted=sink.emitted,
        events_dropped=sink.dropped,
        metrics=obs.METRICS.snapshot(),
        metrics_text=obs.METRICS.render_text(),
        outcome=outcome,
    )


def summarize(result: TraceRunResult) -> str:
    """The ``--summary`` text: trace tallies above the metrics table."""
    ratio = (result.events_dropped / result.events_emitted
             if result.events_emitted else 0.0)
    lines = [
        f"scenario: {result.scenario} (seed {result.seed})",
        f"trace: {len(result.events)} events buffered "
        f"({result.events_emitted} emitted, {result.events_dropped} "
        f"dropped by the ring, drop ratio {ratio:.4f})",
    ]
    if result.events_dropped:
        lines.append(
            f"WARNING: ring buffer truncated the trace -- dropped/emitted "
            f"= {result.events_dropped}/{result.events_emitted} "
            f"({ratio:.1%}); the oldest events are gone and analyses of "
            f"this trace are incomplete (raise --capacity)")
    components = result.components()
    if components:
        lines.append("events by component: "
                     + format_component_tally(components))
    missing = result.missing_core_components()
    if missing:
        lines.append(f"WARNING: no events from: {', '.join(missing)}")
    lines.append("")
    lines.append("metrics:")
    lines.append(result.metrics_text)
    return "\n".join(lines)
