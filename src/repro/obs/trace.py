"""Structured trace log: typed events stamped with virtual time.

A :class:`TraceEvent` is one thing that happened in a simulation --
``link.drop``, ``quack.decode``, ``sidecar.health`` -- stamped with the
*virtual* clock of the :class:`~repro.netsim.core.Simulator` that
produced it.  Events flow into a sink:

* when tracing is disabled (the default), instrumentation points pay one
  attribute load and a falsy branch -- no event object is built, nothing
  is stored (the "null sink" fast path the bench guard pins down);
* when enabled, events land in a :class:`RingSink`, a capped ring buffer
  that drops the *oldest* events once full and counts what it dropped,
  so a long simulation can always be traced with bounded memory.

Export is JSONL, one event per line in virtual-time order,
``{"t": <virtual seconds>, "type": "<component.event>", ...fields}``,
with non-finite floats sanitized to ``null`` so every line is strictly
valid JSON.  The event vocabulary and per-type required fields live in
:mod:`repro.obs.schema`.
"""

from __future__ import annotations

import json
from collections import deque
from operator import attrgetter
from typing import IO, Iterable

from repro.obs.metrics import MetricsRegistry, json_safe
from repro.obs.schema import EVENT_METRICS


class TraceEvent:
    """One timestamped, typed occurrence."""

    __slots__ = ("time", "type", "fields")

    def __init__(self, time: float, type: str, fields: dict) -> None:
        self.time = time
        self.type = type
        self.fields = fields

    def to_dict(self) -> dict:
        """A JSON-safe flat dictionary (the JSONL record)."""
        record = {"t": json_safe(self.time), "type": self.type}
        for key, value in self.fields.items():
            record[key] = json_safe(value)
        return record

    def __repr__(self) -> str:
        return f"TraceEvent({self.time:.6f}, {self.type!r}, {self.fields!r})"


class RingSink:
    """Capped ring buffer of events; drops the oldest when full."""

    __slots__ = ("capacity", "_events", "emitted", "dropped")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            from repro.errors import ObservabilityError
            raise ObservabilityError(
                f"ring capacity must be >= 1 event, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.emitted += 1

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, stably sorted by virtual time.

        A link stamps a packet's departure records when it enqueues the
        packet, ahead of the clock, so emission order is not time order;
        every export and flight-recorder window reads this one.
        """
        return sorted(self._events, key=attrgetter("time"))

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0
        self.dropped = 0


class Tracer:
    """The process-wide switchboard instrumentation points talk to.

    ``enabled`` is a plain attribute so hot paths can guard with
    ``if TRACER.enabled:`` and skip even the argument packing when
    tracing is off.  :meth:`emit` double-checks, so un-guarded callers
    are merely slower, never wrong.  ``registry`` receives the metrics
    ``schema.EVENT_METRICS`` derives from each event.
    """

    __slots__ = ("enabled", "sink", "registry")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.enabled = False
        self.sink: RingSink | None = None
        self.registry = registry

    def configure(self, capacity: int = 65536) -> RingSink:
        """Install a fresh ring sink and switch tracing on."""
        self.sink = RingSink(capacity)
        self.enabled = True
        return self.sink

    def disable(self) -> None:
        """Switch tracing off; the sink (and its events) stay readable."""
        self.enabled = False

    def emit(self, type: str, time: float, **fields: object) -> None:
        """Record one observation: its metrics, then the event.

        The updaters compiled from the type's ``EVENT_METRICS`` rows read
        the ``fields`` the event keeps; with no sink (metrics-only mode)
        that is all that happens.  No-op while disabled.
        """
        if not self.enabled:
            return
        registry = self.registry
        try:
            updates = registry.updaters[type]
        except KeyError:
            updates = registry.updaters[type] = tuple(
                registry.updater(row) for row in EVENT_METRICS.get(type, ()))
        for update in updates:
            update(fields)
        sink = self.sink
        if sink is not None:
            sink.emit(TraceEvent(time, type, fields))

    @property
    def events(self) -> list[TraceEvent]:
        return self.sink.events if self.sink is not None else []


def dump_jsonl(events: Iterable[TraceEvent], handle: IO[str]) -> int:
    """Write events as JSONL; returns the number of lines written.

    ``allow_nan=False`` is belt and braces: :meth:`TraceEvent.to_dict`
    already sanitized non-finite floats to None, so a violation here is
    a bug worth crashing on rather than invalid output.
    """
    written = 0
    for event in events:
        handle.write(json.dumps(event.to_dict(), allow_nan=False))
        handle.write("\n")
        written += 1
    return written


def export_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write events to ``path`` as JSONL; returns the line count."""
    with open(path, "w", encoding="utf-8") as handle:
        return dump_jsonl(events, handle)
