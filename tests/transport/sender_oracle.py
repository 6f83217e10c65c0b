"""The sender's feedback path as it was: the differential oracle and audit.

``SenderConnection`` processes an ACK in time proportional to what the
ACK newly says: it diffs the frame against the packet numbers already
acked (``acked_numbers``) and runs loss detection from a floor below
which every record is settled (``_loss_floor``).  The code it replaced --
walk every packet number of every ACK range from zero, sort and scan the
whole sent log for losses and for the PTO probe -- lives on here,
outside ``src/``, as :class:`ReferenceSender`: those three methods are
the old ones verbatim, everything else is inherited, so whatever the two
classes disagree on is a defect of the incremental bookkeeping.

:func:`audit_sender` states what that bookkeeping must conserve.
``tests/conftest.py`` runs it over every sender a test constructed, when
the test ends; the oracle suite also runs it after every step.
"""

from __future__ import annotations

from repro import obs
from repro.errors import TransportError
from repro.netsim.packet import Packet
from repro.transport.connection import SenderConnection, SentPacketRecord
from repro.transport.frames import AckFrame
from repro.transport.ranges import RangeSet


class ReferenceSender(SenderConnection):
    """ACK processing, loss detection and probe choice by full scans."""

    def _on_ack_packet(self, packet: Packet) -> None:
        if packet.flow_id != self.flow_id:
            return
        frame = packet.protected_payload(self.key)
        if not isinstance(frame, AckFrame):
            raise TransportError(f"expected AckFrame, got {type(frame).__name__}")
        self.stats.acks_received += 1
        now = self.sim.now
        newly_acked: list[SentPacketRecord] = []
        for lo, hi in frame.ranges:
            for pn in range(lo, hi + 1):
                record = self.sent.get(pn)
                if record is None or record.acked:
                    continue
                record.acked = True
                newly_acked.append(record)
        if newly_acked:
            largest = max(newly_acked, key=lambda r: r.packet_number)
            if (self._largest_acked is None
                    or largest.packet_number > self._largest_acked):
                self._largest_acked = largest.packet_number
                self.rtt.update(now - largest.time_sent, frame.delay_s)
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

    def _detect_losses(self, now: float) -> None:
        """Packet-threshold and time-threshold loss detection."""
        if self._largest_acked is None:
            return
        time_threshold = self.rtt.loss_time_threshold()
        for pn in sorted(self.sent):
            if pn >= self._largest_acked:
                break
            record = self.sent[pn]
            if record.acked or record.lost:
                continue
            reordered_out = self._largest_acked - pn >= self.reorder_threshold
            too_old = now - record.time_sent >= time_threshold
            if reordered_out or too_old:
                self._declare_lost(record, now, congestion=self.cc_from_acks,
                                   trigger="reorder" if reordered_out
                                   else "time")

    def _on_pto(self) -> None:
        if self.complete:
            return
        self.stats.pto_fired += 1
        self._pto_backoff += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("transport.pto", self.sim.now, flow=self.flow_id,
                            backoff=self._pto_backoff)
        # Probe: retransmit the earliest outstanding un-acked range.
        outstanding = sorted(
            (r for r in self.sent.values() if not r.acked and not r.lost),
            key=lambda r: r.offset,
        )
        for record in outstanding[:2]:
            self._declare_lost(record, self.sim.now, congestion=False,
                               trigger="pto")
        self._maybe_send()
        self._arm_pto()

    def _arm_pto(self) -> None:
        # Not one of the old methods: the arming rule itself changed (armed
        # while anything sent is neither acked nor lost, where it used to
        # be ``bytes_in_flight > 0``).  The methods above keep no count of
        # what is outstanding, so it is taken by scan before every use.
        self._outstanding = sum(1 for r in self.sent.values()
                                if not r.acked and not r.lost)
        super()._arm_pto()


def _audit_rangeset(name: str, ranges: RangeSet) -> None:
    stored = ranges.ranges
    for (lo, hi), (next_lo, _next_hi) in zip(stored, stored[1:]):
        assert hi + 1 < next_lo, f"{name}: [{lo},{hi}] touches [{next_lo},..]"
    assert all(lo <= hi for lo, hi in stored), f"{name}: inverted range"
    assert len(ranges) == sum(hi - lo + 1 for lo, hi in stored), \
        f"{name}: len() {len(ranges)} is not the sum of its ranges"


def audit_sender(sender: SenderConnection) -> None:
    """What a sender's bookkeeping must conserve, between any two events."""
    records = sender.sent.values()
    flow = sender.flow_id
    for name in ("acked_numbers", "acked_offsets", "assigned_offsets"):
        _audit_rangeset(f"{flow}.{name}", getattr(sender, name))

    in_flight = sum(r.size_bytes for r in records if not r.retired)
    assert sender.bytes_in_flight == in_flight, \
        f"{flow}: bytes_in_flight {sender.bytes_in_flight} != {in_flight} " \
        f"over the records still in flight"
    for record in records:
        pn = record.packet_number
        assert pn < sender._next_packet_number
        if record.acked or record.lost or record.cc_credited:
            assert record.retired, f"{flow}: settled pn {pn} still in flight"
        if record.acked and record.length:
            assert sender.acked_offsets.covers_contiguously(
                record.offset, record.offset + record.length - 1), \
                f"{flow}: acked pn {pn} left its bytes un-acked"
    # acked is a subset of sent, in bytes and in packet numbers.
    for lo, hi in sender.acked_offsets:
        assert sender.assigned_offsets.covers_contiguously(lo, hi), \
            f"{flow}: bytes [{lo},{hi}] acked but never sent"
    acked = [r.packet_number for r in records if r.acked]
    assert sender._largest_acked == (max(acked) if acked else None)
    outstanding = sum(1 for r in records if not r.acked and not r.lost)
    if outstanding and not sender.complete:
        fires_at = sender._pto_timer.next_fire_time
        assert fires_at is not None and fires_at >= sender.sim.now, \
            f"{flow}: {outstanding} packets neither acked nor lost and " \
            f"no probe timeout armed"
    if sender.complete and sender.chunk_source is None:
        assert sender.acked_offsets.covers_contiguously(
            0, sender.total_bytes - 1)

    if isinstance(sender, ReferenceSender):
        return  # the full scans keep none of what follows
    # The acked numbers are the acked records, plus at most numbers that
    # went out on a packet with no record (ACK_FREQUENCY).
    numbers = sender.acked_numbers
    assert all(pn in numbers for pn in acked), \
        f"{flow}: an acked record is missing from acked_numbers"
    assert numbers.max_value is None \
        or numbers.max_value < sender._next_packet_number, \
        f"{flow}: acked_numbers holds a number never sent"
    unrecorded = sum(1 for lo, hi in numbers for pn in range(lo, hi + 1)
                     if pn not in sender.sent)
    assert len(numbers) == len(acked) + unrecorded
    assert sender._outstanding == outstanding
    assert 0 <= sender._loss_floor <= sender._next_packet_number
    waiting = [r.packet_number for r in records
               if not r.acked and not r.lost
               and r.packet_number < sender._loss_floor]
    assert not waiting, \
        f"{flow}: pn {waiting} neither acked nor lost below the loss " \
        f"floor {sender._loss_floor}"
