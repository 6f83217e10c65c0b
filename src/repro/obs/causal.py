"""Causal packet-lifecycle spans assembled from trace events.

Flat event streams answer "how many" questions; the paper's value claim
is about *where in the path* a loss was noticed and repaired, which is a
per-packet question.  This module follows one datagram's trace-context
id (``Packet.trace_ctx``, stamped by the sender when tracing is on)
through every layer that saw it and assembles a **span tree**::

    sent -> mb_observed -> quack_emitted -> gap_detected
         -> retransmitted -> delivered / lost

Each span is one datagram; a transport-level retransmission is a *new*
datagram whose ``transport.retransmit`` event carries ``parent_ctx``, so
it becomes a child span of the packet it replaces.  A sidecar local
repair (Fig. 4) re-emits the *same* datagram, so the span keeps its
context id and simply gains a ``retransmitted`` stage.

Which event adds which stage is one table, :data:`_STAGE_OF`; the two
stages it does not hold are a parent's ``retransmitted`` (mirrored from
the child ``transport.retransmit`` naming it in ``parent_ctx``) and
``quack_emitted`` (see :meth:`SpanBuilder.finish`).
:class:`SpanBuilder` is fed by the one pass of :mod:`repro.obs.analyze`;
:func:`build_span_trees` wraps it for the flight recorder, which wants
the tree of one implicated packet.

``quack_emitted`` is associated analytically (the emit event is
flow-level; carrying per-packet context on every quACK would add wire
cost for nothing), everything else is exact by context id.  Note that
for a repaired packet the quACK precedes the middlebox observation: the
datagram that was lost upstream of the emitter is only *observed* after
the repair re-sends it, while the gap-revealing quACK was emitted from
the packets around it.

All latencies are in virtual seconds, so the same trace always yields
the same spans regardless of host or worker count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.metrics import json_safe
from repro.obs.schema import as_record

#: Canonical stage vocabulary (display/tie-break order).
STAGE_ORDER = ("sent", "mb_observed", "quack_emitted", "gap_detected",
               "retransmitted", "delivered", "lost")

#: Monotonicity is judged on the causal repair chain ``sent ->
#: gap_detected -> retransmitted -> delivered`` plus a per-association
#: check that each quACK preceded the gap detection credited to it.
#: ``mb_observed`` sits outside the chain: a locally repaired packet is
#: observed by the emitter only *after* the repair.

#: Retransmit ``cause`` tag -> attribution class.
_CAUSE_ATTRIBUTION = {"quack": "sidecar", "ack": "e2e-ack", "pto": "e2e-pto"}

#: The full repair lifecycle (the acceptance chain): every one of these
#: stages present somewhere in the tree, in non-decreasing time order.
REPAIR_LIFECYCLE = ("sent", "mb_observed", "quack_emitted", "gap_detected",
                    "retransmitted", "delivered")


@dataclass
class SpanStage:
    """One lifecycle stage of one datagram."""

    stage: str
    time: float
    detail: dict

    def to_dict(self) -> dict:
        record = {"stage": self.stage, "t": json_safe(self.time)}
        for key, value in self.detail.items():
            record[key] = json_safe(value)
        return record


@dataclass
class PacketSpan:
    """The lifecycle of one datagram (identified by its context id)."""

    ctx: int
    flow: str
    stages: list[SpanStage] = field(default_factory=list, init=False)
    children: list["PacketSpan"] = field(default_factory=list, init=False)
    parent_ctx: int | None = field(default=None, init=False)

    # -- stage access -----------------------------------------------------

    def add_stage(self, stage: str, time: float, **detail: object) -> None:
        self.stages.append(SpanStage(stage, time, detail))

    def stage_times(self) -> dict[str, float]:
        """First occurrence time per stage name."""
        times: dict[str, float] = {}
        for entry in self.stages:
            times.setdefault(entry.stage, entry.time)
        return times

    def has_stage(self, stage: str) -> bool:
        return any(entry.stage == stage for entry in self.stages)

    @property
    def delivered(self) -> bool:
        return self.has_stage("delivered")

    @property
    def delivered_in_tree(self) -> bool:
        """True if this datagram or any retransmission of it arrived."""
        return self.delivered or any(child.delivered_in_tree
                                     for child in self.children)

    def tree_stages(self) -> set[str]:
        """Stage names present anywhere in this span tree."""
        present = {entry.stage for entry in self.stages}
        for child in self.children:
            present |= child.tree_stages()
        return present

    # -- derived properties ----------------------------------------------

    @property
    def monotonic(self) -> bool:
        """Stage times non-decreasing along the causal repair chain
        (per span and down into every retransmission child), with the
        off-chain stages sanity-checked against the send time."""
        times = self.stage_times()
        previous = None
        for stage in ("sent", "gap_detected", "retransmitted",
                      "delivered"):
            if stage not in times:
                continue
            if previous is not None and times[stage] < previous - 1e-12:
                return False
            previous = times[stage]
        sent = times.get("sent")
        if sent is not None:
            for stage in ("mb_observed", "lost", "quack_emitted"):
                if stage in times and times[stage] < sent - 1e-12:
                    return False
        # The quACK must precede the gap detection it is credited with
        # (never-lost spans carry no ``gap`` detail: their covering
        # quACK legitimately emits after delivery).
        for entry in self.stages:
            if entry.stage != "quack_emitted":
                continue
            gap = entry.detail.get("gap")
            if gap is not None and entry.time > gap + 1e-12:
                return False
        for child in self.children:
            child_sent = child.stage_times().get("sent")
            if (sent is not None and child_sent is not None
                    and child_sent < sent - 1e-12):
                return False
            if not child.monotonic:
                return False
        return True

    @property
    def lifecycle_complete(self) -> bool:
        """The full repair chain is visible in this tree (acceptance
        surface): sent, observed by a middlebox, covered by a quACK,
        gap-detected, retransmitted, and finally delivered."""
        return (all(stage in self.tree_stages()
                    for stage in REPAIR_LIFECYCLE)
                and self.monotonic)

    @property
    def complete(self) -> bool:
        """The causal tree accounts for the packet (the coverage
        surface): it, or a retransmission of it, was delivered, and the
        stages the trace recorded are in causal order."""
        return self.delivered_in_tree and self.monotonic

    @property
    def attribution(self) -> str:
        """Who repaired (or failed to repair) this datagram."""
        if not self.delivered_in_tree:
            return "lost"
        local = next((entry for entry in self.stages
                      if entry.stage == "retransmitted"
                      and entry.detail.get("local")), None)
        if local is not None:
            return "sidecar"
        for child in self.children:
            cause = next((entry.detail.get("cause")
                          for entry in child.stages
                          if entry.stage == "sent"
                          and "cause" in entry.detail), None)
            attributed = _CAUSE_ATTRIBUTION.get(str(cause))
            if attributed is not None:
                return attributed
        if self.has_stage("gap_detected"):
            # Declared lost but the original still arrived, and no
            # retransmission is visible: a spurious declaration.
            return "spurious"
        return "clean"

    def edge_latencies(self) -> dict[str, float]:
        """Virtual-time deltas between chronologically adjacent stages.

        Keyed ``"<from>-><to>"`` using each stage's first occurrence,
        ordered by time (so a local repair reads
        ``quack_emitted->gap_detected``, then ``gap_detected->
        retransmitted``, then ``retransmitted->mb_observed``).
        """
        times = self.stage_times()
        present = sorted(times, key=lambda stage: (times[stage],
                                                   STAGE_ORDER.index(stage)))
        return {f"{a}->{b}": times[b] - times[a]
                for a, b in zip(present, present[1:])}

    def to_dict(self) -> dict:
        return {
            "ctx": self.ctx,
            "flow": self.flow,
            "parent_ctx": self.parent_ctx,
            "attribution": self.attribution,
            "monotonic": self.monotonic,
            "stages": [entry.to_dict() for entry in self.stages],
            "edges": {key: json_safe(value)
                      for key, value in self.edge_latencies().items()},
            "children": [child.to_dict() for child in self.children],
        }


@dataclass
class CausalAnalysis:
    """All span trees of one trace, plus summary counts."""

    spans: dict[int, PacketSpan]
    roots: list[PacketSpan]

    def attribution_counts(self) -> dict[str, int]:
        return dict(Counter(root.attribution for root in self.roots))

    def complete_repairs(self) -> list[PacketSpan]:
        """Roots whose tree shows the full repair lifecycle."""
        return [root for root in self.roots if root.lifecycle_complete]

    def repaired(self) -> list[PacketSpan]:
        return [root for root in self.roots
                if root.attribution in ("sidecar", "e2e-ack", "e2e-pto")]

    def retransmissions(self) -> list[tuple[str | None, float | None]]:
        """``(cause, detection latency)`` of every retransmission: a
        transport retransmission is the ``sent`` stage of a child
        datagram, a sidecar local repair a ``retransmitted`` stage on the
        repaired datagram itself (the stage a parent mirrors from its
        child is the same event again).  ``cause`` is None where the
        event carried no tag."""
        return [(entry.detail["cause"], entry.detail.get("latency"))
                for span in self.spans.values() for entry in span.stages
                if "cause" in entry.detail
                and (entry.stage == "sent" or entry.detail.get("local"))]

    def lowest_pn(self) -> dict[str, int]:
        """Lowest packet number each flow transmitted; above zero, the
        trace lost its beginning (a ring that wrapped)."""
        lowest: dict[str, int] = {}
        for span in self.spans.values():
            for entry in span.stages:
                pn = entry.detail.get("pn")
                if entry.stage == "sent" and isinstance(pn, int):
                    lowest[span.flow] = min(pn, lowest.get(span.flow, pn))
        return lowest


#: Event type -> (the stage it adds to the span of its ``ctx``, the
#: event fields kept as the stage's detail).  This table and the
#: flow-level ``sidecar.quack_emit`` in :meth:`SpanBuilder.add` are the
#: only place the span model names an event type.
_STAGE_OF = {
    "transport.send": ("sent", ("pn",)),
    "transport.retransmit": ("sent", ("pn", "cause", "latency")),
    "sidecar.mb_observe": ("mb_observed", ()),
    "transport.loss": ("gap_detected", ("trigger",)),
    "sidecar.gap_detect": ("gap_detected", ("latency",)),
    "sidecar.retransmit": ("retransmitted", ("cause", "latency")),
    "transport.deliver": ("delivered", ("pn",)),
    "link.drop": ("lost", ("link", "reason")),
}


class SpanBuilder:
    """Assembles span trees from records fed in time order.

    Events without a context id contribute nothing (control traffic,
    runs without stamping).
    """

    def __init__(self) -> None:
        self.spans: dict[int, PacketSpan] = {}
        self._pending_children: list[tuple[int, PacketSpan]] = []
        self._quack_emits: dict[str, list[float]] = {}

    def add(self, time: float, etype: str, fields: Mapping) -> None:
        if etype == "sidecar.quack_emit":
            self._quack_emits.setdefault(str(fields.get("flow", "?")),
                                         []).append(time)
            return
        row = _STAGE_OF.get(etype)
        ctx = fields.get("ctx")
        if row is None or not isinstance(ctx, int) or isinstance(ctx, bool):
            return
        span = self.spans.get(ctx)
        if span is None:
            span = self.spans[ctx] = PacketSpan(
                ctx=ctx, flow=str(fields.get("flow") or "?"))
        stage, keys = row
        detail = {key: fields.get(key) for key in keys}
        if stage == "retransmitted":
            detail["local"] = True     # the same datagram, re-sent by a PEP
        span.add_stage(stage, time, **detail)
        parent_ctx = fields.get("parent_ctx")
        if isinstance(parent_ctx, int) and not isinstance(parent_ctx, bool):
            span.parent_ctx = parent_ctx
            self._pending_children.append((parent_ctx, span))

    def finish(self) -> CausalAnalysis:
        spans = self.spans
        # Attach transport retransmissions beneath the packet they
        # replace and mirror the event onto the parent as its
        # ``retransmitted`` stage (the parent's repair happened when the
        # child left the wire).
        for parent_ctx, child in self._pending_children:
            parent = spans.get(parent_ctx)
            if parent is None or parent is child:
                continue
            parent.children.append(child)
            sent = next((entry for entry in child.stages
                         if entry.stage == "sent"), None)
            if sent is not None:
                parent.add_stage("retransmitted", sent.time,
                                 cause=sent.detail.get("cause"),
                                 local=False, ctx=child.ctx)

        # Associate the causal quACK per span (flow-level cadence).  A
        # span whose gap was detected by quACK decode (a
        # ``sidecar.gap_detect`` stage) is matched with the *last* emit
        # in its (sent, detection] window -- the quACK that revealed the
        # gap.  A never-lost span is matched with the first emit at or
        # after its middlebox observation (the quACK covering it).  Gaps
        # detected purely by the e2e transport (ACK reordering, PTO)
        # involve no quACK and get none.
        for span in spans.values():
            emits = self._quack_emits.get(span.flow)
            if not emits:
                continue
            times = span.stage_times()
            sent = times.get("sent")
            quack_gap = next((entry.time for entry in span.stages
                              if entry.stage == "gap_detected"
                              and entry.detail.get("latency") is not None),
                             None)
            if quack_gap is not None:
                index = bisect_right(emits, quack_gap + 1e-12) - 1
                while index >= 0 and sent is not None \
                        and emits[index] < sent - 1e-12:
                    index -= 1
                if index >= 0:
                    span.add_stage("quack_emitted", emits[index],
                                   gap=quack_gap)
                continue
            observed = times.get("mb_observed")
            if observed is None:
                continue
            index = bisect_left(emits, observed - 1e-12)
            if index < len(emits):
                span.add_stage("quack_emitted", emits[index])

        for span in spans.values():
            span.stages.sort(key=lambda entry: (
                entry.time, STAGE_ORDER.index(entry.stage)))
        roots = [span for span in spans.values() if span.parent_ctx is None
                 or span.parent_ctx not in spans]
        roots.sort(key=lambda span: (span.stage_times().get("sent",
                                                            float("inf")),
                                     span.ctx))
        return CausalAnalysis(spans=spans, roots=roots)


def build_span_trees(events: Iterable[object]) -> CausalAnalysis:
    """Assemble per-packet span trees from a whole trace: in-memory
    :class:`~repro.obs.trace.TraceEvent` objects or decoded JSONL
    records, in any order."""
    builder = SpanBuilder()
    for record in sorted(map(as_record, events), key=lambda r: r["t"]):
        builder.add(record["t"], record["type"], record)
    return builder.finish()
