"""Unidirectional links: bandwidth, propagation delay, FIFO queue, loss.

A link serializes packets at ``bandwidth_bps``, holds at most
``queue_packets`` datagrams waiting for (or in) the transmitter
(drop-tail), then propagates each surviving packet after ``delay_s``.
A packet's departure is known at enqueue, ``max(now, last departure) +
size*8/bw``, so the link keeps only the pending departure times and
schedules one event per packet: its arrival.  Loss (from the configured
:class:`~repro.netsim.loss.LossModel`, drawn at enqueue -- departure
order, as the link drains FIFO) is applied on the wire: a lost packet
still consumes its serialization time, as on a noisy physical hop.

A link optionally carries a :class:`~repro.netsim.faults.FaultInjector`
(``faults=``), consulted after the loss model for each packet, as of the
instant the packet finishes serialisation: injected drops, corruption,
duplication, and delay spikes are applied here and counted separately
from natural loss.  Per-link statistics feed the experiment reports.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.faults import FaultInjector
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.packet import Packet


@dataclass
class LinkStats:
    """Counters a link accumulates over a run."""

    offered: int = field(default=0, init=False)
    delivered: int = field(default=0, init=False)
    dropped_queue: int = field(default=0, init=False)
    dropped_loss: int = field(default=0, init=False)
    dropped_fault: int = field(default=0, init=False)
    corrupted_fault: int = field(default=0, init=False)
    duplicated_fault: int = field(default=0, init=False)
    bytes_delivered: int = field(default=0, init=False)
    busy_seconds: float = field(default=0.0, init=False)
    ce_marked: int = field(default=0, init=False)

    @property
    def loss_rate(self) -> float:
        """Fraction of transmitted packets lost on the wire."""
        transmitted = self.delivered + self.dropped_loss
        return self.dropped_loss / transmitted if transmitted else 0.0


class Link:
    """One direction of a point-to-point hop."""

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 deliver: Callable[[Packet], None],
                 queue_packets: int = 256,
                 loss_model: LossModel | None = None,
                 name: str = "link",
                 ecn_threshold: int | None = None,
                 faults: FaultInjector | None = None) -> None:
        if bandwidth_bps <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_s < 0:
            raise SimulationError(f"delay must be >= 0, got {delay_s}")
        if queue_packets < 1:
            raise SimulationError(f"queue must hold >= 1 packet, got {queue_packets}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.deliver = deliver
        self.queue_packets = queue_packets
        if ecn_threshold is not None and ecn_threshold < 1:
            raise SimulationError(
                f"ecn_threshold must be >= 1 packet, got {ecn_threshold}")
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        # A clean hop never asks the loss model.
        self._lossy = not isinstance(self.loss_model, NoLoss)
        self.name = name
        #: Mark CE on packets that arrive to a queue at or above this
        #: depth (a minimal AQM); None disables marking.
        self.ecn_threshold = ecn_threshold
        #: Optional fault injector (chaos harness); None = no faults.
        self.faults = faults
        self.stats = LinkStats()
        # Departure times of the packets queued or in serialization; one
        # leaves the backlog once its departure is strictly in the past.
        self._departures: deque[float] = deque()

    # -- ingress -----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False if the drop-tail queue rejected it."""
        stats = self.stats
        stats.offered += 1
        now = self.sim.now
        departures = self._departures
        while departures and departures[0] < now:
            departures.popleft()
        queued = len(departures)
        if queued >= self.queue_packets:
            stats.dropped_queue += 1
            if obs.TRACER.enabled:
                self._trace_drop(packet, "queue", now)
            return False
        if (self.ecn_threshold is not None and queued >= self.ecn_threshold
                and not packet.ecn_ce):
            packet.ecn_ce = True
            stats.ce_marked += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("link.enqueue", now, link=self.name,
                            kind=packet.kind.value, size=packet.size_bytes,
                            queue=queued + 1, ctx=packet.trace_ctx)
        tx_time = packet.size_bytes * 8 / self.bandwidth_bps
        stats.busy_seconds += tx_time
        depart = (departures[-1] if departures else now) + tx_time
        departures.append(depart)
        if self._lossy and self.loss_model.should_drop(packet):
            stats.dropped_loss += 1
            if obs.TRACER.enabled:
                self._trace_drop(packet, "loss", depart)
        elif self.faults is not None:
            delay = self.delay_s
            self.sim.schedule_at(depart + delay, self._arrive, packet,
                                 depart, delay)
        else:
            stats.delivered += 1
            stats.bytes_delivered += packet.size_bytes
            if obs.TRACER.enabled:
                obs.TRACER.emit("link.deliver", depart, link=self.name,
                                kind=packet.kind.value,
                                size=packet.size_bytes, ctx=packet.trace_ctx)
            self.sim.schedule_at(depart + self.delay_s, self.deliver, packet)
        return True

    @property
    def queue_depth(self) -> int:
        """Packets waiting for (or in) serialization."""
        return len(self._departures) - bisect_left(self._departures,
                                                   self.sim.now)

    # -- internals -----------------------------------------------------------

    def _arrive(self, packet: Packet, depart: float, delay: float) -> None:
        """Apply the fault injector's decision, taken as of ``depart``."""
        decision = self.faults.on_transmit(packet, depart)
        if decision.drop or decision.copies == 0:
            self.stats.dropped_fault += 1
            if obs.TRACER.enabled:
                self._trace_drop(packet, "fault", depart)
            return
        if decision.replacement is not None:
            packet = decision.replacement
            self.stats.corrupted_fault += 1
        self.stats.duplicated_fault += decision.copies - 1
        for _ in range(decision.copies):
            self.stats.delivered += 1
            self.stats.bytes_delivered += packet.size_bytes
            if obs.TRACER.enabled:
                obs.TRACER.emit("link.deliver", depart, link=self.name,
                                kind=packet.kind.value,
                                size=packet.size_bytes, ctx=packet.trace_ctx)
            if decision.extra_delay:
                self.sim.schedule_at(depart + (delay + decision.extra_delay),
                                     self.deliver, packet)
            else:
                self.deliver(packet)

    def _trace_drop(self, packet: Packet, reason: str, time: float) -> None:
        obs.TRACER.emit("link.drop", time, link=self.name,
                        kind=packet.kind.value, size=packet.size_bytes,
                        reason=reason, ctx=packet.trace_ctx)

    def __repr__(self) -> str:
        return (f"Link({self.name}, {self.bandwidth_bps / 1e6:.1f} Mbps, "
                f"{self.delay_s * 1e3:.1f} ms, q={self.queue_packets}, "
                f"{self.loss_model!r})")
