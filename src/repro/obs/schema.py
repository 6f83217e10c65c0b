"""The trace-event vocabulary and its JSONL validator.

Every event type the instrumentation emits is declared here with its
required fields and their JSON types.  The schema is the contract
between the emitting layers (netsim, transport, quack, sidecar), the
JSONL consumers (CI's smoke job, notebook analysis), and the docs
(DESIGN.md §8 renders this table).

Event types are ``<component>.<event>``; every record carries ``t``
(virtual seconds, a number) and ``type``.  Extra fields beyond the
required set are allowed -- consumers must ignore what they do not
know -- but a missing or mistyped required field fails validation.

An event is also the only record of a metric update:
:data:`EVENT_METRICS` declares, per event type, the metrics
``Tracer.emit`` derives from the fields it was handed.

Run as a module to validate a trace file (CI does exactly this)::

    python -m repro.obs.schema trace.jsonl
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Mapping

from repro.errors import ObservabilityError
from repro.obs.metrics import LATENCY_BUCKETS, Metric

#: JSON type groups used in field specs.
NUMBER = (int, float)
STRING = (str,)
BOOLEAN = (bool,)

#: Required fields per event type (beyond the universal ``t``/``type``).
EVENT_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    # -- netsim ---------------------------------------------------------
    "link.enqueue": {"link": STRING, "kind": STRING, "size": NUMBER,
                     "queue": NUMBER},
    "link.deliver": {"link": STRING, "kind": STRING, "size": NUMBER},
    "link.drop": {"link": STRING, "kind": STRING, "size": NUMBER,
                  "reason": STRING},
    "fault.activate": {"injector": STRING, "kind": STRING,
                       "effect": STRING},
    # -- transport ------------------------------------------------------
    # Lifecycle events carry an optional ``ctx`` (the trace-context id
    # stamped on the datagram, see DESIGN.md §8); it is not required so
    # traces from runs without context stamping stay valid.
    "transport.send": {"flow": STRING, "pn": NUMBER, "size": NUMBER},
    # The receiver accepted a new (non-duplicate) data packet.
    "transport.deliver": {"flow": STRING, "pn": NUMBER},
    # ``cause`` attributes the retransmission to its loss-detection path
    # (quack = sidecar decode, ack = e2e ACK evidence, pto = probe
    # timeout); ``latency`` is the virtual time from the original
    # transmission to the loss declaration (the detection latency the
    # analytics engine aggregates per cause).
    "transport.retransmit": {"flow": STRING, "pn": NUMBER, "size": NUMBER,
                             "cause": STRING, "latency": NUMBER},
    "transport.cwnd": {"flow": STRING, "cwnd": NUMBER,
                       "in_flight": NUMBER, "srtt": NUMBER},
    "transport.loss": {"flow": STRING, "pn": NUMBER, "trigger": STRING,
                       "congestion": BOOLEAN},
    "transport.pto": {"flow": STRING, "backoff": NUMBER},
    "transport.complete": {"flow": STRING, "bytes": NUMBER},
    # -- quack ----------------------------------------------------------
    "quack.encode": {"scheme": STRING, "bytes": NUMBER},
    "quack.decode": {"status": STRING, "missing": NUMBER},
    # -- sidecar --------------------------------------------------------
    # A middlebox emitter folded one datagram into its power sums.
    # ``ctx`` is the packet's trace-context id (null when the datagram
    # was sent without one, e.g. control traffic).
    "sidecar.mb_observe": {"flow": STRING, "ctx": NUMBER},
    "sidecar.quack_emit": {"role": STRING, "flow": STRING, "epoch": NUMBER},
    # A quACK decode declared one specific buffered packet missing (the
    # per-packet companion to the flow-level ``quack.decode``).
    "sidecar.gap_detect": {"flow": STRING, "ctx": NUMBER,
                           "latency": NUMBER},
    # A PEP-to-PEP local repair (Section 2.3): always quACK-caused, with
    # the same detection-latency semantics as ``transport.retransmit``.
    "sidecar.retransmit": {"flow": STRING, "cause": STRING,
                           "latency": NUMBER},
    "sidecar.wire_error": {"flow": STRING},
    "sidecar.reset": {"flow": STRING, "epoch": NUMBER, "reason": STRING},
    "sidecar.reset_retry": {"flow": STRING, "epoch": NUMBER},
    "sidecar.health": {"old": STRING, "new": STRING, "reason": STRING},
    # -- sidecar defense (plausibility gates, quarantine, resume) -------
    # ``observed``/``expected`` are the counts the gate compared; either
    # may be null when the signal kind has no numeric evidence.
    "sidecar.violation": {"flow": STRING, "kind": STRING,
                          "observed": NUMBER, "expected": NUMBER},
    "sidecar.quarantine": {"flow": STRING, "kind": STRING,
                           "signals": NUMBER},
    "sidecar.count_regression": {"flow": STRING, "observed": NUMBER,
                                 "expected": NUMBER},
    # ``role`` is emitter (announcing a restored checkpoint) or consumer
    # (judging it); ``phase`` is sent / accepted / rejected.
    "sidecar.resume": {"flow": STRING, "role": STRING, "phase": STRING,
                       "epoch": NUMBER, "count": NUMBER},
    "sidecar.checkpoint": {"flow": STRING, "epoch": NUMBER,
                           "count": NUMBER, "bytes": NUMBER},
    # Post-resume reconciliation: packets retired from the sender sums
    # because they were confirmed pre-crash (checkpoint gap), not lost.
    "sidecar.gap_reconciled": {"flow": STRING, "packets": NUMBER},
    # -- sidecar flow table (multi-tenant middlebox, DESIGN.md §13) -----
    # Admission control turned a flow away at the global high-water mark.
    "sidecar.flow_reject": {"tenant": STRING, "flow": STRING,
                            "flows": NUMBER},
    # A flow's bank was torn down; ``reason`` is budget (tenant LRU),
    # clamp (forced budget cut), shed (overload), or close (teardown).
    "sidecar.flow_evict": {"tenant": STRING, "flow": STRING,
                           "reason": STRING},
    # One shared-timer sweep coalesced due flows into batched frames.
    "sidecar.batch_emit": {"frames": NUMBER, "flows": NUMBER},
    # -- sidecar version negotiation (DESIGN.md §11) --------------------
    "sidecar.hello": {"flow": STRING, "max_version": NUMBER,
                      "attempt": NUMBER},
    "sidecar.negotiated": {"flow": STRING, "role": STRING,
                           "version": NUMBER, "features": NUMBER},
    "sidecar.version_switch": {"flow": STRING, "role": STRING,
                               "version": NUMBER, "epoch": NUMBER},
    "sidecar.stale_version": {"flow": STRING, "got": NUMBER,
                              "expected": NUMBER},
}


def _count(name: str, *labels: str, value: str | None = None,
           **const: object) -> tuple[Metric, ...]:
    return (Metric("counter", name, labels, value, tuple(const.items())),)


#: Event type -> the metrics derived from each such event.  Label and
#: value fields are *required* fields of the type, label fields strings
#: (``tests/obs/test_schema_drift.py``).  DESIGN.md §8 lists the metrics
#: written directly because no event field holds their value.
EVENT_METRICS: dict[str, tuple[Metric, ...]] = {
    "link.enqueue": _count("netsim_link_offered_total", "link"),
    "link.deliver": _count("netsim_link_delivered_total", "link"),
    "link.drop": _count("netsim_link_dropped_total", "link", "reason"),
    "fault.activate": _count("netsim_fault_activations_total",
                             "injector", "effect"),
    "transport.send": _count("transport_packets_sent_total", "flow",
                             retx=False),
    "transport.deliver": _count("transport_packets_delivered_total", "flow"),
    "transport.retransmit": (
        _count("transport_retransmits_total", "flow", "cause")
        + _count("transport_packets_sent_total", "flow", retx=True)),
    "transport.cwnd": (
        Metric("gauge", "transport_cwnd_bytes", ("flow",), "cwnd"),
        Metric("gauge", "transport_srtt_seconds", ("flow",), "srtt")),
    "transport.loss": _count("transport_losses_total", "flow", "trigger"),
    "transport.pto": _count("transport_pto_fired_total", "flow"),
    "quack.encode": _count("quack_encoded_total", "scheme"),
    "quack.decode": _count("quack_decodes_total", "status"),
    "sidecar.quack_emit": _count("sidecar_quacks_emitted_total", "role"),
    "sidecar.retransmit": (
        _count("sidecar_retransmissions_total", "cause")
        + (Metric("histogram", "sidecar_repair_latency_seconds", ("cause",),
                  "latency", buckets=LATENCY_BUCKETS),)),
    "sidecar.wire_error": _count("sidecar_wire_errors_total"),
    "sidecar.reset": _count("sidecar_resets_total", "reason"),
    "sidecar.reset_retry": _count("sidecar_reset_retries_total"),
    "sidecar.health": _count("sidecar_health_transitions_total", "new"),
    "sidecar.violation": _count("sidecar_violations_total", "kind"),
    "sidecar.quarantine": _count("sidecar_quarantines_total"),
    "sidecar.count_regression": _count("sidecar_count_regressions_total"),
    "sidecar.resume": _count("sidecar_resumes_total", "phase"),
    "sidecar.checkpoint": _count("sidecar_checkpoints_total"),
    "sidecar.flow_reject": _count("flowtable_flows_rejected_total"),
    "sidecar.flow_evict": _count("flowtable_flows_evicted_total", "reason"),
    "sidecar.batch_emit": _count("flowtable_frames_batched_total",
                                 value="frames"),
    "sidecar.hello": _count("sidecar_hellos_total"),
    "sidecar.negotiated": _count("sidecar_negotiations_total", "role"),
    "sidecar.version_switch": _count("sidecar_version_switches_total",
                                     "role"),
    "sidecar.stale_version": _count("sidecar_stale_version_frames_total"),
}

#: Components an end-to-end traced scenario must touch (the acceptance
#: surface the CI smoke checks).
CORE_COMPONENTS = ("link", "transport", "quack", "sidecar")


def component_of(event_type: str) -> str:
    """The component prefix of an event type (``link.drop`` -> ``link``)."""
    return event_type.split(".", 1)[0]


def as_record(item: object) -> dict:
    """The one normaliser every trace reader goes through.

    ``item`` is a JSONL line, a decoded record or a
    :class:`~repro.obs.trace.TraceEvent`; the result is the flat record
    with a string ``type`` and a finite numeric ``t``.  Anything else
    raises :class:`ObservabilityError` -- the strict validator lets it
    propagate, the forgiving parser counts it.  (The exporter never
    writes a non-finite stamp -- it becomes ``null`` -- but ``json.loads``
    reads ``NaN`` and ``Infinity``, and one would poison every ordering
    and duration derived from the trace.)
    """
    if isinstance(item, str):
        try:
            item = json.loads(item)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"not valid JSON: {exc}") from exc
    elif not isinstance(item, Mapping) and hasattr(item, "to_dict"):
        item = item.to_dict()
    if not isinstance(item, dict):
        raise ObservabilityError(f"event must be an object, got {item!r}")
    if not isinstance(item.get("type"), str):
        raise ObservabilityError(f"event has no string 'type': {item!r}")
    stamp = item.get("t")
    # bool is an int subclass; keep booleans out of numeric fields.
    if not isinstance(stamp, NUMBER) or isinstance(stamp, bool) \
            or not math.isfinite(stamp):
        raise ObservabilityError(f"{item['type']}: 't' must be a finite "
                                 f"number, got {stamp!r}")
    return item


def validate_record(record: object) -> None:
    """Check one record against its type's schema; raises
    ObservabilityError."""
    record = as_record(record)
    etype = record["type"]
    spec = EVENT_SCHEMA.get(etype)
    if spec is None:
        raise ObservabilityError(f"unknown event type {etype!r}")
    for name, types in spec.items():
        value = record.get(name)
        if value is None and name not in record:
            raise ObservabilityError(f"{etype}: missing field {name!r}")
        if isinstance(value, bool) and types is NUMBER:
            raise ObservabilityError(
                f"{etype}: field {name!r} must be a number, got a bool")
        if value is not None and not isinstance(value, types):
            raise ObservabilityError(
                f"{etype}: field {name!r} expected "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}")
        if types is NUMBER and value is not None \
                and not math.isfinite(value):
            raise ObservabilityError(
                f"{etype}: field {name!r} must be finite, got {value!r}")


def validate_lines(lines: Iterable[str]) -> dict[str, int]:
    """Validate JSONL lines; returns event counts per component."""
    components: dict[str, int] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = as_record(line)
            validate_record(record)
        except ObservabilityError as exc:
            raise ObservabilityError(f"line {number}: {exc}") from exc
        component = component_of(record["type"])
        components[component] = components.get(component, 0) + 1
    return components


def validate_file(path: str) -> dict[str, int]:
    """Validate one JSONL trace file; returns per-component counts."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_lines(handle)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: validate trace files given as arguments."""
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.schema TRACE.jsonl [...]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            components = validate_file(path)
        except (OSError, ObservabilityError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            return 1
        total = sum(components.values())
        breakdown = ", ".join(f"{name}={count}"
                              for name, count in sorted(components.items()))
        print(f"{path}: ok ({total} events: {breakdown})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
