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

Run as a module to validate a trace file (CI does exactly this)::

    python -m repro.obs.schema trace.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Iterable

from repro.errors import ObservabilityError

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
    # stamped on the datagram, see DESIGN.md §13); it is not required so
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
    # -- sidecar flow table (multi-tenant middlebox, DESIGN.md §16) -----
    # Admission control turned a flow away at the global high-water mark.
    "sidecar.flow_reject": {"tenant": STRING, "flow": STRING,
                            "flows": NUMBER},
    # A flow's bank was torn down; ``reason`` is budget (tenant LRU),
    # clamp (forced budget cut), shed (overload), or close (teardown).
    "sidecar.flow_evict": {"tenant": STRING, "flow": STRING,
                           "reason": STRING},
    # One shared-timer sweep coalesced due flows into batched frames.
    "sidecar.batch_emit": {"frames": NUMBER, "flows": NUMBER},
    # -- sidecar version negotiation (DESIGN.md §12) --------------------
    "sidecar.hello": {"flow": STRING, "max_version": NUMBER,
                      "attempt": NUMBER},
    "sidecar.negotiated": {"flow": STRING, "role": STRING,
                           "version": NUMBER, "features": NUMBER},
    "sidecar.version_switch": {"flow": STRING, "role": STRING,
                               "version": NUMBER, "epoch": NUMBER},
    "sidecar.stale_version": {"flow": STRING, "got": NUMBER,
                              "expected": NUMBER},
}

#: Components an end-to-end traced scenario must touch (the acceptance
#: surface the CI smoke checks).
CORE_COMPONENTS = ("link", "transport", "quack", "sidecar")


def component_of(event_type: str) -> str:
    """The component prefix of an event type (``link.drop`` -> ``link``)."""
    return event_type.split(".", 1)[0]


def validate_record(record: object) -> None:
    """Check one decoded JSONL record; raises ObservabilityError."""
    if not isinstance(record, dict):
        raise ObservabilityError(f"event must be an object, got {record!r}")
    etype = record.get("type")
    if not isinstance(etype, str):
        raise ObservabilityError(f"event has no string 'type': {record!r}")
    spec = EVENT_SCHEMA.get(etype)
    if spec is None:
        raise ObservabilityError(f"unknown event type {etype!r}")
    stamp = record.get("t")
    if not isinstance(stamp, NUMBER) or isinstance(stamp, bool):
        raise ObservabilityError(f"{etype}: 't' must be a number, "
                                 f"got {stamp!r}")
    for name, types in spec.items():
        value = record.get(name)
        if value is None and name not in record:
            raise ObservabilityError(f"{etype}: missing field {name!r}")
        # bool is an int subclass; keep booleans out of numeric fields.
        if isinstance(value, bool) and types is NUMBER:
            raise ObservabilityError(
                f"{etype}: field {name!r} must be a number, got a bool")
        if value is not None and not isinstance(value, types):
            raise ObservabilityError(
                f"{etype}: field {name!r} expected "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}")


def validate_lines(lines: Iterable[str]) -> dict[str, int]:
    """Validate JSONL lines; returns event counts per component."""
    components: dict[str, int] = {}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"line {number}: not valid JSON: {exc}") from exc
        try:
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
