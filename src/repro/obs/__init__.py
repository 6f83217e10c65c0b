"""Unified observability: tracing, metrics, and profiling (``repro.obs``).

Three cooperating pieces, shared by every layer of the reproduction:

* :mod:`repro.obs.metrics` -- labeled ``Counter``/``Gauge``/``Histogram``
  families in a :class:`MetricsRegistry` with one (mergeable) snapshot
  form, reset and text rendering;
* :mod:`repro.obs.trace` -- a structured log of typed events stamped
  with virtual time, held in a capped ring buffer and exportable as
  JSONL (the vocabulary lives in :mod:`repro.obs.schema`, and so does
  the table that says which metrics each event type feeds);
* :mod:`repro.obs.profile` -- wall-clock spans over the quACK hot paths,
  aggregated per call path (kept out of the metrics registry).

Reading a trace back is one module, :mod:`repro.obs.analyze` (not loaded
by ``import repro.obs``): one pass, one report.

The module-level singletons (:data:`TRACER`, :data:`METRICS`,
:data:`PROFILER`) are what the instrumentation points inside netsim,
transport, quack, and sidecar talk to.  They are **off by default** and
cost one attribute load plus a branch per instrumentation point while
off -- simulations that do not ask for observability pay nothing
measurable (``benchmarks/test_obs_overhead.py`` pins this down).

Typical use (what ``python -m repro trace`` does)::

    from repro import obs

    sink = obs.enable()                 # tracing + metrics + profiling on
    ... run a scenario ...
    obs.export_jsonl(sink.events, "trace.jsonl")
    print(obs.METRICS.render_text())
    obs.disable()

Instrumentation points follow one pattern -- guard, then emit, once::

    from repro import obs

    if obs.TRACER.enabled:
        obs.TRACER.emit("link.drop", self.sim.now, link=self.name,
                        kind=packet.kind.value, size=packet.size_bytes,
                        reason="queue")

``schema.EVENT_METRICS`` derives ``netsim_link_dropped_total{link,reason}``
from the event's fields; :func:`count` / :func:`gauge` / :func:`observe`
remain for the few metrics no event field can supply (DESIGN.md §8).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    json_safe,
)
from repro.obs.profile import Profiler
from repro.obs.trace import (
    RingSink,
    TraceEvent,
    Tracer,
    dump_jsonl,
    export_jsonl,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
    "DEFAULT_BUCKETS", "LATENCY_BUCKETS", "json_safe",
    "TraceEvent", "RingSink", "Tracer", "dump_jsonl", "export_jsonl",
    "Profiler", "FlightRecorder",
    "TRACER", "METRICS", "PROFILER", "FLIGHT",
    "enable", "enable_metrics", "disable", "reset",
    "count", "gauge", "observe",
]

#: The process-wide metrics registry.  Always writable; hot paths only
#: touch it behind ``TRACER.enabled`` so disabled runs skip it entirely.
METRICS = MetricsRegistry()

#: The process-wide trace switchboard (off until :func:`enable`); every
#: event it is handed also feeds :data:`METRICS` (``schema.EVENT_METRICS``).
TRACER = Tracer(METRICS)

#: The process-wide wall-clock profiler (off until :func:`enable`).
PROFILER = Profiler()

#: The process-wide flight recorder (disarmed until configured).
FLIGHT = FlightRecorder()


def enable(capacity: int = 65536, profile: bool = True,
           allocations: bool = False) -> RingSink:
    """Turn observability on; returns the fresh trace sink.

    ``allocations=True`` asks the profiler to attribute ``tracemalloc``
    byte deltas to each call path (expensive; timing runs should leave
    it off).
    """
    sink = TRACER.configure(capacity)
    if profile:
        PROFILER.configure(allocations=allocations)
    return sink


def enable_metrics() -> None:
    """Metrics-only mode: counters/histograms record, events are dropped.

    Flips ``TRACER.enabled`` without installing a sink, so ``emit``
    updates the metrics an event feeds and stores nothing -- the mode
    sweep workers use to feed the cross-process aggregator without
    paying for (or shipping) an event ring.
    """
    TRACER.sink = None
    TRACER.enabled = True


def disable() -> None:
    """Turn tracing and profiling off (collected data stays readable)."""
    TRACER.disable()
    PROFILER.disable()


def reset() -> None:
    """Drop the metrics, profiler paths, and buffered trace events."""
    METRICS.reset()
    PROFILER.reset()
    if TRACER.sink is not None:
        TRACER.sink.clear()


# -- direct metric helpers ----------------------------------------------------
#
# For a metric no event field can supply; everything else is a row of
# ``schema.EVENT_METRICS``.  They are *not* pre-guarded: hot paths must
# check ``TRACER.enabled`` first so the disabled cost stays at one branch.

def count(name: str, **labels: object) -> None:
    """Increment ``name{labels}`` in the global registry."""
    METRICS.counter(name, labels=tuple(sorted(labels))).labels(**labels).inc()


def gauge(name: str, value: float, **labels: object) -> None:
    """Set ``name{labels}`` in the global registry."""
    METRICS.gauge(name, labels=tuple(sorted(labels))).labels(
        **labels).set(value)


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_BUCKETS,
            **labels: object) -> None:
    """Observe ``value`` into histogram ``name{labels}``."""
    METRICS.histogram(name, labels=tuple(sorted(labels)),
                      buckets=buckets).labels(**labels).observe(value)
