"""Unidirectional links: bandwidth, propagation delay, FIFO queue, loss.

A link serializes packets at ``bandwidth_bps``, holds at most
``queue_packets`` datagrams waiting for the transmitter (drop-tail), then
propagates each surviving packet after ``delay_s``.  Loss (from the
configured :class:`~repro.netsim.loss.LossModel`) is applied on the wire,
i.e. after a packet has consumed its serialization time -- matching a
noisy physical hop rather than an AQM.

A link optionally carries a :class:`~repro.netsim.faults.FaultInjector`
(``faults=``), consulted after the loss model for each packet that
finished serialization: injected drops, corruption, duplication, and
delay spikes are applied here and counted separately from natural loss.

Per-link statistics feed the experiment reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses errors only)
    from repro.netsim.faults import FaultInjector


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
                 faults: "FaultInjector | None" = None) -> None:
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
        self.name = name
        #: Mark CE on packets that arrive to a queue at or above this
        #: depth (a minimal AQM); None disables marking.
        self.ecn_threshold = ecn_threshold
        #: Optional fault injector (chaos harness); None = no faults.
        self.faults = faults
        self.stats = LinkStats()
        self._queue: deque[Packet] = deque()
        self._transmitting = False
        # The link serializes one packet at a time, so a single reusable
        # timer carries every end-of-serialization event: one wheel-slot
        # insert per packet, no per-packet handle allocation.
        self._tx_timer = sim.timer(self._finish_transmission)

    # -- ingress -----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False if the drop-tail queue rejected it."""
        self.stats.offered += 1
        if len(self._queue) >= self.queue_packets:
            self.stats.dropped_queue += 1
            if obs.TRACER.enabled:
                self._trace_drop(packet, "queue")
            return False
        if (self.ecn_threshold is not None
                and len(self._queue) >= self.ecn_threshold
                and not packet.ecn_ce):
            packet.ecn_ce = True
            self.stats.ce_marked += 1
        self._queue.append(packet)
        if obs.TRACER.enabled:
            obs.TRACER.emit("link.enqueue", self.sim.now, link=self.name,
                            kind=packet.kind.value, size=packet.size_bytes,
                            queue=len(self._queue), ctx=packet.trace_ctx)
        if not self._transmitting:
            self._start_next_transmission()
        return True

    @property
    def queue_depth(self) -> int:
        """Packets waiting for (or in) serialization."""
        return len(self._queue)

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.bandwidth_bps

    @property
    def rtt_contribution(self) -> float:
        """One-way propagation delay (serialization excluded)."""
        return self.delay_s

    # -- internals -----------------------------------------------------------

    def _start_next_transmission(self) -> None:
        packet = self._queue[0]
        self._transmitting = True
        tx_time = self.serialization_delay(packet.size_bytes)
        self.stats.busy_seconds += tx_time
        self._tx_timer.rearm(tx_time)

    def _propagation_delay(self) -> float:
        """Per-packet propagation delay; subclasses may add jitter."""
        return self.delay_s

    def _finish_transmission(self) -> None:
        packet = self._queue.popleft()
        if self.loss_model.should_drop(packet):
            self.stats.dropped_loss += 1
            if obs.TRACER.enabled:
                self._trace_drop(packet, "loss")
        else:
            self._propagate(packet)
        if self._queue:
            self._start_next_transmission()
        else:
            self._transmitting = False

    def _propagate(self, packet: Packet) -> None:
        """Consult the fault injector, then schedule delivery."""
        delay = self._propagation_delay()
        copies = 1
        if self.faults is not None:
            decision = self.faults.on_transmit(packet, self.sim.now)
            if decision.drop or decision.copies == 0:
                self.stats.dropped_fault += 1
                if obs.TRACER.enabled:
                    self._trace_drop(packet, "fault")
                return
            if decision.replacement is not None:
                packet = decision.replacement
                self.stats.corrupted_fault += 1
            delay += decision.extra_delay
            copies = decision.copies
            if copies > 1:
                self.stats.duplicated_fault += copies - 1
        for _ in range(copies):
            self.stats.delivered += 1
            self.stats.bytes_delivered += packet.size_bytes
            if obs.TRACER.enabled:
                obs.TRACER.emit("link.deliver", self.sim.now, link=self.name,
                                kind=packet.kind.value,
                                size=packet.size_bytes,
                                ctx=packet.trace_ctx)
            self.sim.schedule(delay, self.deliver, packet)

    def _trace_drop(self, packet: Packet, reason: str) -> None:
        obs.TRACER.emit("link.drop", self.sim.now, link=self.name,
                        kind=packet.kind.value, size=packet.size_bytes,
                        reason=reason, ctx=packet.trace_ctx)

    def __repr__(self) -> str:
        return (f"Link({self.name}, {self.bandwidth_bps / 1e6:.1f} Mbps, "
                f"{self.delay_s * 1e3:.1f} ms, q={self.queue_packets}, "
                f"{self.loss_model!r})")
