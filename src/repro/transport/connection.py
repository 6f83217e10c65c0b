"""Sender and receiver endpoints of the paranoid transport.

One connection moves ``total_bytes`` of a single stream from a sender host
to a receiver host over the simulated network.  On the wire every packet
is sealed (E2E-encrypted); on-path elements observe only sizes, timing,
and the pseudorandom per-packet identifier derived from the ciphertext
(:mod:`repro.ids`).

The sender implements the QUIC-like machinery the sidecar interacts with:

* window-based sending governed by a pluggable congestion controller;
* ACK processing with packet-threshold + time-threshold loss detection
  and a probe timeout (PTO) backstop (RFC 9002 flavored);
* retransmission of lost byte ranges under *new* packet numbers;
* **sidecar hooks**: :meth:`SenderConnection.sidecar_receipt` and
  :meth:`SenderConnection.sidecar_loss` let a host sidecar feed decoded
  quACK information into window management ("The server no longer needs
  to rely on end-to-end ACKs to make decisions to increase the cwnd,
  though these ACKs still govern the retransmission logic", Section 2.1;
  "enable the server to move its sending window ahead more quickly",
  Section 2.2) -- and :meth:`SenderConnection.add_send_listener` lets the
  sidecar library log each sent packet's identifier.

The receiver tracks received ranges, generates ACK frames under an
:class:`~repro.transport.ack.AckFrequencyPolicy`, and honours
ACK-frequency updates from the sender.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.errors import TransportError
from repro.ids.identifiers import IdentifierFactory
from repro.netsim.core import EventHandle, Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind, reset_packet_uids
from repro.netsim.topology import HopSpec, build_path
from repro.obs.metrics import LATENCY_BUCKETS
from repro.transport.ack import (
    DEFAULT_MAX_ACK_DELAY,
    AckFrequencyPolicy,
    AckTracker,
)
from repro.transport.cc.base import CongestionController
from repro.transport.cc.newreno import NewReno
from repro.transport.frames import (
    DEFAULT_MSS,
    HEADER_BYTES,
    AckFrame,
    AckFrequencyFrame,
    DataFrame,
)
from repro.transport.ranges import RangeSet
from repro.transport.rtt import RttEstimator

#: Packet-number threshold for loss detection (RFC 9002: kPacketThreshold).
PACKET_REORDER_THRESHOLD = 3

#: Loss-detection trigger -> retransmit cause tag for trace attribution.
#: ``quack`` = a sidecar quACK decode declared the loss, ``ack`` = e2e ACK
#: range evidence (packet or time threshold), ``pto`` = the probe-timeout
#: backstop fired blind.
RETRANSMIT_CAUSES = {"sidecar": "quack", "reorder": "ack", "time": "ack",
                     "pto": "pto"}

#: Upper bound on PTO exponential backoff doublings.
MAX_PTO_BACKOFF = 6


@dataclass(slots=True)
class SentPacketRecord:
    """Sender-side bookkeeping for one transmitted packet.  Slotted, so
    that the state fields below are set by ``__init__`` like the rest."""

    packet_number: int
    offset: int
    length: int
    size_bytes: int
    time_sent: float
    identifier: int
    is_retransmission: bool = False
    acked: bool = field(default=False, init=False)
    lost: bool = field(default=False, init=False)
    #: True once this packet no longer counts toward bytes_in_flight
    #: (because it was acked, declared lost, or released by a quACK).
    retired: bool = field(default=False, init=False)
    #: True once the congestion controller was credited for this packet.
    cc_credited: bool = field(default=False, init=False)
    #: Trace-context id stamped on the packet at transmit time (tracing
    #: enabled only); lets loss/retransmit events point back at the
    #: original datagram's lifecycle span.
    trace_ctx: int | None = field(default=None, init=False)


@dataclass
class SenderStats:
    packets_sent: int = field(default=0, init=False)
    bytes_sent: int = field(default=0, init=False)
    retransmitted_packets: int = field(default=0, init=False)
    acks_received: int = field(default=0, init=False)
    pto_fired: int = field(default=0, init=False)
    losses_detected: int = field(default=0, init=False)
    sidecar_releases: int = field(default=0, init=False)
    sidecar_losses: int = field(default=0, init=False)


class SenderConnection:
    """The data-sending endpoint (the paper's "server")."""

    def __init__(self, sim: Simulator, host: Host, peer: str,
                 total_bytes: int,
                 key: bytes = b"connection-key",
                 flow_id: str = "flow0") -> None:
        if total_bytes <= 0:
            raise TransportError(f"total_bytes must be positive, got {total_bytes}")
        self.sim = sim
        self.host = host
        self.peer = peer
        self.total_bytes = total_bytes
        self.mss = DEFAULT_MSS
        self.cc: CongestionController = NewReno()
        self.id_factory = IdentifierFactory(key, bits=32)
        self.key = key
        self.flow_id = flow_id
        #: Congestion-control division (Section 2.1): when False, e2e ACKs
        #: govern only retransmission; the congestion window moves solely on
        #: sidecar feedback (sidecar_receipt / sidecar_loss).
        self.cc_from_acks = True
        #: Packet-number reordering tolerance before declaring loss.  A
        #: host cooperating with an in-network retransmitter may raise it
        #: to give local repair time to win (experiment E9's ablation).
        self.reorder_threshold = PACKET_REORDER_THRESHOLD
        #: Space transmissions at the pacing rate instead of bursting the
        #: whole window.  The rate comes from the congestion controller's
        #: ``pacing_rate_bps(rtt)`` when it has one (AimdRate, BbrLite),
        #: otherwise from cwnd/srtt with the usual slow-start headroom.
        self.pacing = False

        self.rtt = RttEstimator()
        self.sent: dict[int, SentPacketRecord] = {}
        #: Every packet number an ACK frame has covered, so that the next
        #: frame is diffed against it and only what it adds is visited.
        self.acked_numbers = RangeSet()
        self.acked_offsets = RangeSet()
        self.bytes_in_flight = 0
        self.stats = SenderStats()
        self.completed_at: float | None = None

        self._next_packet_number = 0
        self._next_offset = 0
        #: (offset, length, cause, detect_latency, parent_ctx): what to
        #: resend, why the loss was declared (quack/ack/pto), the virtual
        #: time between the original transmission and the declaration,
        #: and the lost packet's trace-context id (None untraced) so the
        #: retransmission's span links to its parent.
        self._retx_queue: deque[tuple[int, int, str, float, int | None]] = \
            deque()
        self._pacing_handle: EventHandle | None = None
        self._next_send_allowed = 0.0
        # One reusable timer carries every PTO arm for the connection's
        # life: each ACK-driven rearm tombstones the previous arm in
        # place instead of churning the event queue.
        self._pto_timer = sim.timer(self._on_pto)
        self._pto_backoff = 0
        self._largest_acked: int | None = None
        #: Every record numbered below this is acked or declared lost;
        #: loss detection and the PTO probe start here.  Only ever rises.
        self._loss_floor = 0
        #: Sent records neither acked nor declared lost (RFC 9002's
        #: ack-eliciting packets outstanding): the PTO stays armed while
        #: there are any, whether or not a quACK released their bytes.
        self._outstanding = 0
        self._ce_echoed = 0  # largest cumulative CE count seen in ACKs
        self._send_listeners: list[Callable[[SentPacketRecord], None]] = []
        self._started = False
        self._paused = False
        self._last_traced_cwnd: float | None = None

        host.add_handler(PacketKind.ACK, self._on_ack_packet)

    # -- public API ---------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting; idempotent."""
        if self._started:
            return
        self._started = True
        self._maybe_send()

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def pause(self) -> None:
        """Gate all transmissions (including retransmissions).

        Used by the sidecar session-reset protocol to drain the pipe
        before restarting the cumulative quACK state.  Loss detection and
        ACK processing continue; nothing leaves until :meth:`resume`.
        """
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._maybe_send()

    @property
    def paused(self) -> bool:
        return self._paused

    def add_send_listener(self,
                          listener: Callable[[SentPacketRecord], None]) -> None:
        """Observe every transmission (the host sidecar's logging hook)."""
        self._send_listeners.append(listener)

    def request_ack_frequency(self, ack_every: int,
                              max_delay_s: float) -> None:
        """Send an ACK_FREQUENCY update to the receiver (Section 2.2).

        The frame rides an ordinary encrypted packet, so on-path sidecars
        observe (and quACK) its identifier like any other -- the send
        listeners must hear about it or the sidecar session's cumulative
        state diverges.
        """
        pn = self._next_packet_number
        self._next_packet_number += 1
        frame = AckFrequencyFrame(ack_every=ack_every, max_delay_s=max_delay_s,
                                  packet_number=pn)
        identifier = self.id_factory.identifier(pn)
        size = HEADER_BYTES + 8
        packet = Packet.sealed(
            src=self.host.name, dst=self.peer, size_bytes=size,
            key=self.key, payload=frame, kind=PacketKind.DATA,
            identifier=identifier,
            flow_id=self.flow_id, created_at=self.sim.now,
        )
        record = SentPacketRecord(
            packet_number=pn, offset=0, length=0, size_bytes=size,
            time_sent=self.sim.now, identifier=identifier,
        )
        if obs.TRACER.enabled:
            packet.trace_ctx = packet.uid
            record.trace_ctx = packet.uid
        self.host.send(packet)
        for listener in self._send_listeners:
            listener(record)

    # -- sidecar hooks --------------------------------------------------------

    def sidecar_receipt(self, packet_numbers: list[int]) -> None:
        """QuACK-confirmed receipt (by a proxy or the client) of packets.

        Releases the packets from the in-flight window and credits the
        congestion controller, so the window moves without waiting for the
        end-to-end ACK.  Reliability is untouched: the byte ranges stay
        un-acked until a real ACK arrives, and loss detection/PTO still
        cover them.
        """
        now = self.sim.now
        for pn in packet_numbers:
            record = self.sent.get(pn)
            if record is None or record.acked or record.lost:
                continue
            if not record.retired:
                record.retired = True
                self.bytes_in_flight -= record.size_bytes
            if not record.cc_credited:
                record.cc_credited = True
                self.cc.on_ack(record.size_bytes, self.rtt.srtt, now)
                self.stats.sidecar_releases += 1
        self._maybe_send()

    def sidecar_loss(self, packet_numbers: list[int],
                     congestive: bool = True) -> None:
        """QuACK-decoded losses: retransmit early, optionally reduce cwnd.

        ``congestive=False`` models the paper's observation that losses on
        a known-noisy subpath need not be treated as congestion.
        """
        now = self.sim.now
        for pn in packet_numbers:
            record = self.sent.get(pn)
            if record is None or record.acked or record.lost:
                continue
            self._declare_lost(record, now, congestion=congestive,
                               trigger="sidecar")
            self.stats.sidecar_losses += 1
        self._maybe_send()

    # -- sending ------------------------------------------------------------

    def _maybe_send(self) -> None:
        if self.complete or self._paused:
            return
        while True:
            if self.pacing and self.sim.now < self._next_send_allowed - 1e-12:
                self._arm_pacing_timer()
                break
            chunk = self._next_chunk()
            if chunk is None:
                break
            offset, length, retx = chunk
            size = HEADER_BYTES + length
            if not self.cc.can_send(self.bytes_in_flight, size):
                self._push_back_chunk(offset, length, retx)
                break
            self._transmit(offset, length, retx=retx)
            if self.pacing:
                interval = size * 8 / self._pacing_rate_bps()
                self._next_send_allowed = max(
                    self.sim.now, self._next_send_allowed) + interval
        self._arm_pto()

    def _pacing_rate_bps(self) -> float:
        rate_fn = getattr(self.cc, "pacing_rate_bps", None)
        if callable(rate_fn):
            rate = rate_fn(self.rtt.srtt)
            if rate > 0:
                return rate
        headroom = 2.0 if self.cc.in_slow_start else 1.25
        return max(headroom * self.cc.cwnd * 8 / max(self.rtt.srtt, 1e-4),
                   8 * (HEADER_BYTES + self.mss))  # never below 1 packet/s

    def _arm_pacing_timer(self) -> None:
        if self._pacing_handle is not None:
            return
        delay = max(self._next_send_allowed - self.sim.now, 0.0)
        self._pacing_handle = self.sim.schedule(delay, self._on_pacing_timer)

    def _on_pacing_timer(self) -> None:
        self._pacing_handle = None
        self._maybe_send()

    def _next_chunk(self) -> tuple[int, int, tuple[str, float, int | None] | None] | None:
        """The next (offset, length, retx) to put on the wire, retx first.

        ``retx`` is None for fresh data, or ``(cause, detect_latency,
        parent_ctx)`` for a retransmission (threaded into the trace event
        so analysis never has to re-infer causality from event ordering).
        """
        if self._retx_queue:
            offset, length, cause, latency, parent_ctx = self._retx_queue.popleft()
            return offset, length, (cause, latency, parent_ctx)
        if self._next_offset < self.total_bytes:
            length = min(self.mss, self.total_bytes - self._next_offset)
            offset = self._next_offset
            self._next_offset += length
            return offset, length, None
        return None

    def _push_back_chunk(self, offset: int, length: int,
                         retx: tuple[str, float, int | None] | None) -> None:
        """Return an unsent chunk to the front of its queue."""
        if retx is not None:
            self._retx_queue.appendleft((offset, length, *retx))
        else:
            self._next_offset = offset  # it was fresh data; rewind

    def _transmit(self, offset: int, length: int,
                  retx: tuple[str, float, int | None] | None = None,
                  ) -> SentPacketRecord:
        is_retransmission = retx is not None
        pn = self._next_packet_number
        self._next_packet_number += 1
        fin = offset + length >= self.total_bytes
        frame = DataFrame(packet_number=pn, offset=offset, length=length,
                          fin=fin)
        identifier = self.id_factory.identifier(pn)
        size = HEADER_BYTES + length
        packet = Packet.sealed(
            src=self.host.name, dst=self.peer, size_bytes=size, key=self.key,
            payload=frame, kind=PacketKind.DATA, identifier=identifier,
            flow_id=self.flow_id, created_at=self.sim.now,
        )
        record = SentPacketRecord(
            packet_number=pn, offset=offset, length=length, size_bytes=size,
            time_sent=self.sim.now, identifier=identifier,
            is_retransmission=is_retransmission,
        )
        self.sent[pn] = record
        self._outstanding += 1
        self.bytes_in_flight += size
        self.stats.packets_sent += 1
        self.stats.bytes_sent += size
        if is_retransmission:
            self.stats.retransmitted_packets += 1
        self.cc.on_packet_sent(size, self.sim.now)
        if obs.TRACER.enabled:
            # Stamp the trace-context id *before* the packet hits the
            # wire so every on-path observation can cite it.  The uid is
            # already unique per datagram, so it doubles as the context
            # id at zero extra state (DESIGN.md §8).
            packet.trace_ctx = packet.uid
            record.trace_ctx = packet.uid
            if retx is not None:
                cause, latency, parent_ctx = retx
                obs.TRACER.emit("transport.retransmit", self.sim.now,
                                flow=self.flow_id, pn=pn, size=size,
                                cause=cause, latency=latency,
                                ctx=packet.uid, parent_ctx=parent_ctx)
            else:
                obs.TRACER.emit("transport.send", self.sim.now,
                                flow=self.flow_id, pn=pn, size=size,
                                ctx=packet.uid)
        self.host.send(packet)
        for listener in self._send_listeners:
            listener(record)
        return record

    # -- receiving ACKs --------------------------------------------------------

    def _on_ack_packet(self, packet: Packet) -> None:
        if packet.flow_id != self.flow_id:
            return
        frame = packet.protected_payload(self.key)
        if not isinstance(frame, AckFrame):
            raise TransportError(f"expected AckFrame, got {type(frame).__name__}")
        self.stats.acks_received += 1
        now = self.sim.now
        sent = self.sent
        newly_acked: list[SentPacketRecord] = []
        largest = -1
        # Only what this frame adds to the acked numbers is visited, in
        # the order a walk over every range would meet it (frame order,
        # ascending inside a range): ``cc.on_ack`` below is an
        # order-sensitive fold.  A number not sent yet is never recorded,
        # so acking it early changes nothing.
        for lo, hi in self.acked_numbers.add_new(frame.ranges,
                                                 self._next_packet_number):
            for pn in range(lo, hi + 1):
                record = sent.get(pn)
                if record is None:
                    continue  # the number of an ACK_FREQUENCY packet
                record.acked = True
                if not record.lost:
                    self._outstanding -= 1
                newly_acked.append(record)
                if pn > largest:
                    largest = pn
        if newly_acked:
            if self._largest_acked is None or largest > self._largest_acked:
                self._largest_acked = largest
                self.rtt.update(now - sent[largest].time_sent, frame.delay_s)
            for record in newly_acked:
                if not record.retired:
                    record.retired = True
                    self.bytes_in_flight -= record.size_bytes
                if not record.cc_credited and self.cc_from_acks:
                    record.cc_credited = True
                    self.cc.on_ack(record.size_bytes, self.rtt.latest, now)
                self.acked_offsets.add_range(
                    record.offset, record.offset + record.length - 1)
            self._pto_backoff = 0
        if frame.ecn_ce_count > self._ce_echoed:
            # New CE marks since the last ACK: one congestion response
            # (further responses inside the recovery epoch are absorbed
            # by the controller's once-per-round-trip rule).
            self._ce_echoed = frame.ecn_ce_count
            if self.cc_from_acks:
                self._congestion_from_largest(now)
        self._detect_losses(now)
        if obs.TRACER.enabled and self.cc.cwnd != self._last_traced_cwnd:
            # One cwnd event per change keeps the trace readable: ACKs
            # that leave the window alone add nothing.
            self._last_traced_cwnd = self.cc.cwnd
            obs.TRACER.emit("transport.cwnd", now, flow=self.flow_id,
                            cwnd=int(self.cc.cwnd),
                            in_flight=self.bytes_in_flight,
                            srtt=self.rtt.srtt)
        self._check_completion()
        self._maybe_send()

    def _congestion_from_largest(self, now: float) -> None:
        if self._largest_acked is not None:
            record = self.sent.get(self._largest_acked)
            if record is not None:
                self.cc.on_congestion_event(record.time_sent, now)

    def _detect_losses(self, now: float) -> None:
        """Packet-threshold and time-threshold loss detection."""
        largest = self._largest_acked
        if largest is None or self._loss_floor >= largest:
            return
        time_threshold = self.rtt.loss_time_threshold()
        sent = self.sent
        floor = None
        for pn in range(self._loss_floor, largest):
            record = sent.get(pn)
            if record is None or record.acked or record.lost:
                continue
            reordered_out = largest - pn >= self.reorder_threshold
            too_old = now - record.time_sent >= time_threshold
            if reordered_out or too_old:
                self._declare_lost(record, now, congestion=self.cc_from_acks,
                                   trigger="reorder" if reordered_out
                                   else "time")
            elif floor is None:
                floor = pn
        # Whatever was walked and is not still waiting is settled for
        # good (the largest acked number itself included).
        self._loss_floor = floor if floor is not None else largest + 1

    def _declare_lost(self, record: SentPacketRecord, now: float,
                      congestion: bool, trigger: str = "reorder") -> None:
        record.lost = True
        self._outstanding -= 1
        self.stats.losses_detected += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("transport.loss", now, flow=self.flow_id,
                            pn=record.packet_number, trigger=trigger,
                            congestion=congestion, ctx=record.trace_ctx)
            # Direct: neither the latency nor the retransmit-cause label
            # is a field of ``transport.loss``.
            obs.observe("transport_detect_latency_seconds",
                        now - record.time_sent,
                        buckets=LATENCY_BUCKETS,
                        cause=RETRANSMIT_CAUSES.get(trigger, trigger))
        if not record.retired:
            record.retired = True
            self.bytes_in_flight -= record.size_bytes
        if not self.acked_offsets.covers_contiguously(
                record.offset, record.offset + record.length - 1):
            self._retx_queue.append(
                (record.offset, record.length,
                 RETRANSMIT_CAUSES.get(trigger, trigger),
                 now - record.time_sent, record.trace_ctx))
        if congestion:
            self.cc.on_congestion_event(record.time_sent, now)

    # -- PTO ---------------------------------------------------------------------

    def _arm_pto(self) -> None:
        # Not ``bytes_in_flight == 0``: a quACK retires packets that are
        # still un-acked end to end, and if what repairs them is then lost
        # past the proxy only this timer is left to notice.
        if self.complete or not self._outstanding:
            self._pto_timer.cancel()
            return
        interval = self.rtt.pto_interval(DEFAULT_MAX_ACK_DELAY,
                                         min(self._pto_backoff, MAX_PTO_BACKOFF))
        self._pto_timer.rearm(interval)

    def _on_pto(self) -> None:
        if self.complete:
            return
        self.stats.pto_fired += 1
        self._pto_backoff += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("transport.pto", self.sim.now, flow=self.flow_id,
                            backoff=self._pto_backoff)
        # Probe: retransmit the earliest outstanding un-acked range.
        unsettled = map(self.sent.get,
                        range(self._loss_floor, self._next_packet_number))
        outstanding = sorted(
            (r for r in unsettled
             if r is not None and not r.acked and not r.lost),
            key=lambda r: r.offset,
        )
        for record in outstanding[:2]:
            self._declare_lost(record, self.sim.now, congestion=False,
                               trigger="pto")
        self._maybe_send()
        self._arm_pto()

    def _check_completion(self) -> None:
        # Offsets are below ``total_bytes``: a full count is full coverage.
        if (self.completed_at is None
                and self.acked_offsets.count == self.total_bytes):
            self._finish()

    def _finish(self) -> None:
        self.completed_at = self.sim.now
        if obs.TRACER.enabled:
            obs.TRACER.emit("transport.complete", self.sim.now,
                            flow=self.flow_id, bytes=self.total_bytes)
        self._pto_timer.cancel()


@dataclass
class ReceiverStats:
    packets_received: int = field(default=0, init=False)
    duplicate_packets: int = field(default=0, init=False)
    acks_sent: int = field(default=0, init=False)
    bytes_received: int = field(default=0, init=False)


class ReceiverConnection:
    """The data-receiving endpoint (the paper's "client")."""

    #: Estimated wire size of an ACK packet: header + largest + range count
    #: + 8 bytes per range.
    ACK_BASE_BYTES = HEADER_BYTES + 12

    def __init__(self, sim: Simulator, host: Host, peer: str,
                 total_bytes: int,
                 key: bytes = b"connection-key",
                 flow_id: str = "flow0") -> None:
        self.sim = sim
        self.host = host
        self.peer = peer
        self.total_bytes = total_bytes
        self.key = key
        self.flow_id = flow_id
        #: QUIC's stock cadence until an ACK_FREQUENCY frame moves it.
        self.ack_policy = AckFrequencyPolicy()

        self.tracker = AckTracker()
        #: Byte ranges received.
        self.received_offsets = RangeSet()
        self.stats = ReceiverStats()
        self.completed_at: float | None = None
        #: When the last new byte arrived (None until one does).
        self.last_delivery_at: float | None = None
        #: Cumulative count of CE-marked data packets, echoed in ACKs
        #: (the ECN role e2e ACKs keep even under ACK reduction, §2.2).
        self.ce_count = 0

        self._ack_packet_number = 0
        self._delayed_ack: EventHandle | None = None

        host.add_handler(PacketKind.DATA, self._on_data_packet)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def goodput_bps(self) -> float:
        """Bytes received over the time of the last delivery, in bit/s
        (0.0 before anything is delivered)."""
        if self.last_delivery_at is None:
            return 0.0
        return 8 * self.stats.bytes_received / self.last_delivery_at

    # -- receiving ----------------------------------------------------------

    def _on_data_packet(self, packet: Packet) -> None:
        if packet.flow_id != self.flow_id:
            return
        frame = packet.protected_payload(self.key)
        if isinstance(frame, AckFrequencyFrame):
            self.ack_policy.update(frame.ack_every, frame.max_delay_s)
            return
        if not isinstance(frame, DataFrame):
            raise TransportError(f"expected DataFrame, got {type(frame).__name__}")
        self.stats.packets_received += 1
        tracker = self.tracker
        if not tracker.on_packet(frame.packet_number):
            self.stats.duplicate_packets += 1
            return
        if packet.ecn_ce:
            # Per packet number, not per datagram: a duplicated CE-marked
            # packet is one congestion signal (RFC 9000 section 13.4.1).
            self.ce_count += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("transport.deliver", self.sim.now,
                            flow=self.flow_id, pn=frame.packet_number,
                            ctx=packet.trace_ctx)
        received = self.received_offsets
        if frame.length > 0:
            new_bytes = received.add_range(frame.offset,
                                           frame.offset + frame.length - 1)
            if new_bytes:
                self.stats.bytes_received += new_bytes
                self.last_delivery_at = self.sim.now
        self._maybe_ack(frame.packet_number != tracker.largest
                        or received.has_gap_below(frame.offset))
        # Every offset is below ``total_bytes``, so a full count is
        # complete coverage.
        if self.completed_at is None and received.count == self.total_bytes > 0:
            self._complete()

    def _maybe_ack(self, out_of_order: bool) -> None:
        if self.ack_policy.should_ack_immediately(
                self.tracker.pending_ack_count, out_of_order):
            self._send_ack()
        elif self._delayed_ack is None and self.tracker.pending_ack_count:
            self._delayed_ack = self.sim.schedule(
                self.ack_policy.max_delay_s, self._on_delayed_ack)

    def _on_delayed_ack(self) -> None:
        self._delayed_ack = None
        if self.tracker.pending_ack_count:
            self._send_ack()

    def _send_ack(self) -> None:
        if self._delayed_ack is not None:
            self._delayed_ack.cancel()
            self._delayed_ack = None
        largest = self.tracker.largest
        if largest is None:
            return
        ranges = self.tracker.ack_ranges()
        frame = AckFrame(largest_acked=largest, ranges=ranges,
                         delay_s=0.0, ecn_ce_count=self.ce_count,
                         packet_number=self._ack_packet_number)
        self._ack_packet_number += 1
        size = self.ACK_BASE_BYTES + 8 * len(ranges)
        packet = Packet.sealed(
            src=self.host.name, dst=self.peer, size_bytes=size, key=self.key,
            payload=frame, kind=PacketKind.ACK, identifier=None,
            flow_id=self.flow_id, created_at=self.sim.now,
        )
        self.tracker.mark_acked()
        self.stats.acks_sent += 1
        self.host.send(packet)

    def _complete(self) -> None:
        self.completed_at = self.sim.now
        # Flush a final ACK so the sender can finish too.
        self._send_ack()


class Transfer:
    """One transfer of ``total_bytes`` from ``server`` to ``client``
    across the named routers: the assembly every scenario opens its run
    through (in the library, by :func:`repro.sidecar.path.run_row`).

    ``hops`` are the links of the chain ``server -> routers -> client``,
    one per adjacent pair.  The receiver is built before the sender, and
    the sender is not started: callers configure the endpoints and
    attach their sidecar agents to ``routers``, ``sender`` and
    ``receiver`` in between.  Building one
    restarts the process-wide packet-uid sequence, so a run's uids --
    and with them its trace -- are a pure function of its own arguments,
    whatever ran before it in the process.
    """

    def __init__(self, total_bytes: int, routers: Sequence[str],
                 hops: Sequence[HopSpec]) -> None:
        reset_packet_uids()
        self.sim = sim = Simulator()
        server = Host(sim, "server")
        self.routers = [Router(sim, name) for name in routers]
        client = Host(sim, "client")
        self.topology = build_path(sim, [server, *self.routers, client], hops)
        self.receiver = ReceiverConnection(sim, client, "server", total_bytes)
        self.sender = SenderConnection(sim, server, "client", total_bytes)

    def run(self, *, slice_s: float, deadline_s: float) -> bool:
        """Start the sender and run until the transfer completes.

        Returns whether it did.  Recurring sidecar timers keep the event
        queue alive after the last byte, so a bare ``sim.run()`` would
        not return: run in ``slice_s`` slices and stop at the first
        slice boundary where both ends are complete, the queue is empty,
        or ``deadline_s`` has passed.
        """
        sim, sender, receiver = self.sim, self.sender, self.receiver
        sender.start()
        while sim.now < deadline_s:
            sim.run(until=min(sim.now + slice_s, deadline_s))
            if sender.complete and receiver.complete:
                break
            if sim.peek_next_time() is None:
                break
        return sender.complete and receiver.complete
