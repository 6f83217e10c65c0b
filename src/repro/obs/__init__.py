"""Unified observability: tracing, metrics, and profiling (``repro.obs``).

Three cooperating pieces, shared by every layer of the reproduction:

* :mod:`repro.obs.metrics` -- labeled ``Counter``/``Gauge``/``Histogram``
  families in a :class:`MetricsRegistry` with one (mergeable) snapshot
  form and reset;
* :mod:`repro.obs.trace` -- a structured log of typed events stamped
  with virtual time, held in a capped ring buffer and exportable as
  JSONL (the vocabulary lives in :mod:`repro.obs.schema`, and so does
  the table that says which metrics each event type feeds);
* :mod:`repro.obs.layers` -- the layer table the repo benchmark times,
  and the recorder that wraps its boundaries from outside the program
  while ``repro trace`` runs (wall clock, kept out of the metrics
  registry).

Reading a trace back is one module, :mod:`repro.obs.analyze` (not loaded
by ``import repro.obs``): one pass, one report.

The module-level singletons (:data:`TRACER`, :data:`METRICS`) are what
the instrumentation points inside netsim, transport, quack, and sidecar
talk to.  They are **off by default** and cost one attribute load plus a
branch per instrumentation point while off -- simulations that do not
ask for observability pay nothing measurable
(``benchmarks/test_obs_overhead.py`` holds the enabled path to a call
budget).  :data:`PROFILER` has no instrumentation point: ``repro trace``
installs it around its run, and :func:`disable` takes it out again.

Typical use (what ``python -m repro trace`` does)::

    from repro import obs
    from repro.obs.metrics import series_rows
    from repro.obs.trace import export_jsonl

    sink = obs.enable()                 # tracing + metrics on
    ... run a scenario ...
    export_jsonl(sink.events, "trace.jsonl")
    for series, value in series_rows(obs.METRICS.snapshot()):
        print(series, value)
    obs.disable()

Instrumentation points follow one pattern -- guard, then emit, once::

    from repro import obs

    if obs.TRACER.enabled:
        obs.TRACER.emit("link.drop", self.sim.now, link=self.name,
                        kind=packet.kind.value, size=packet.size_bytes,
                        reason="queue")

``schema.EVENT_METRICS`` derives ``netsim_link_dropped_total{link,reason}``
from the event's fields; :func:`count` / :func:`observe` remain for the
few metrics no event field can supply (DESIGN.md §8).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.flight import FlightRecorder
from repro.obs.layers import Recorder
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import RingSink, Tracer

#: The process-wide metrics registry.  Always writable; hot paths only
#: touch it behind ``TRACER.enabled`` so disabled runs skip it entirely.
METRICS = MetricsRegistry()

#: The process-wide trace switchboard (off until :func:`enable`); every
#: event it is handed also feeds :data:`METRICS` (``schema.EVENT_METRICS``).
TRACER = Tracer(METRICS)

#: The process-wide layer recorder (installed only by a timed
#: ``run_traced``; ``PROFILER.enabled`` while installed).
PROFILER = Recorder()

#: The process-wide flight recorder (disarmed until configured).
FLIGHT = FlightRecorder()


def enable(capacity: int = 65536) -> RingSink:
    """Turn tracing and metrics on; returns the fresh trace sink."""
    return TRACER.configure(capacity)


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
    """Turn tracing off and take the layer recorder's wrappers out
    (collected data stays readable)."""
    TRACER.disable()
    PROFILER.remove()


def reset() -> None:
    """Drop the metrics, recorded spans, and buffered trace events."""
    METRICS.reset()
    PROFILER.clear()
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


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_BUCKETS,
            **labels: object) -> None:
    """Observe ``value`` into histogram ``name{labels}``."""
    METRICS.histogram(name, labels=tuple(sorted(labels)),
                      buckets=buckets).labels(**labels).observe(value)
