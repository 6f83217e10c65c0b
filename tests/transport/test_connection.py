"""In-simulator tests for the transport endpoints (connection.py)."""

import random

import pytest

from repro.errors import TransportError
from repro.netsim.core import Simulator
from repro.netsim.faults import Blackout, BurstLoss
from repro.netsim.loss import BernoulliLoss, DeterministicLoss
from repro.netsim.node import Host, Router
from repro.netsim.packet import PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.transport.cc.fixed import FixedWindow
from repro.transport.connection import ReceiverConnection, SenderConnection
from repro.transport.frames import HEADER_BYTES


def make_pair(total_bytes=100_000, hops=None, sender_attrs=None):
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    nodes = [server, client]
    if hops is None:
        hops = [HopSpec(bandwidth_bps=10e6, delay_s=0.01)]
    if len(hops) == 2:
        nodes = [server, Router(sim, "mid"), client]
    topo = build_path(sim, nodes, hops)
    receiver = ReceiverConnection(sim, client, "server", total_bytes)
    sender = SenderConnection(sim, server, "client", total_bytes)
    for name, value in (sender_attrs or {}).items():
        setattr(sender, name, value)
    return sim, sender, receiver, topo


class TestCleanTransfer:
    def test_completes(self):
        sim, sender, receiver, _ = make_pair()
        sender.start()
        sim.run(until=30)
        assert sender.complete and receiver.complete
        assert receiver.stats.bytes_received == 100_000
        assert sender.stats.retransmitted_packets == 0
        assert receiver.completed_at <= sender.completed_at

    def test_start_is_idempotent(self):
        sim, sender, receiver, _ = make_pair()
        sender.start()
        sender.start()
        sim.run(until=30)
        assert receiver.stats.bytes_received == 100_000

    def test_exact_byte_accounting(self):
        sim, sender, receiver, _ = make_pair(total_bytes=3001)
        sender.start()
        sim.run(until=30)
        assert receiver.stats.bytes_received == 3001
        assert receiver.stats.duplicate_packets == 0

    def test_total_bytes_must_be_positive(self):
        sim = Simulator()
        host = Host(sim, "h")
        with pytest.raises(TransportError):
            SenderConnection(sim, host, "peer", total_bytes=0)

    def test_sender_completes_after_receiver(self):
        # The sender records when its last byte was acknowledged.
        sim, sender, receiver, _ = make_pair()
        sender.start()
        sim.run(until=30)
        assert sender.completed_at >= receiver.completed_at

    def test_goodput_is_bytes_over_the_last_delivery(self):
        sim, sender, receiver, _ = make_pair()
        assert receiver.goodput_bps() == 0.0  # nothing delivered yet
        sender.start()
        sim.run(until=0.05)
        assert 0 < receiver.stats.bytes_received < 100_000
        assert receiver.last_delivery_at <= sim.now
        assert receiver.goodput_bps() == \
            8 * receiver.stats.bytes_received / receiver.last_delivery_at
        sim.run(until=30)
        assert receiver.last_delivery_at == receiver.completed_at
        assert receiver.goodput_bps() == 8 * 100_000 / receiver.completed_at

    def test_window_limits_inflight(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=500_000,
            sender_attrs={"cc": FixedWindow(4)})
        sender.start()
        sim.run(until=0.011)  # before first ACK returns
        assert sender.stats.packets_sent == 4


class TestLossRecovery:
    def test_single_loss_repaired(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=60_000,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=DeterministicLoss({3}))])
        sender.start()
        sim.run(until=30)
        assert receiver.complete
        assert sender.stats.retransmitted_packets >= 1
        assert sender.stats.losses_detected >= 1

    def test_random_loss_repaired(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=300_000,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=BernoulliLoss(0.05, random.Random(7)))])
        sender.start()
        sim.run(until=60)
        assert receiver.complete and sender.complete
        assert receiver.stats.bytes_received == 300_000

    def test_loss_on_ack_path_tolerated(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=200_000,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          faults_down=BurstLoss([(0.0, 60.0)], rate=0.2,
                                                seed=3))])
        sender.start()
        sim.run(until=60)
        assert receiver.complete and sender.complete

    def test_pto_fires_when_tail_is_lost(self):
        # Drop the last data packet; only the PTO can recover it.
        total = 1460 * 5
        sim, sender, receiver, _ = make_pair(
            total_bytes=total,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=DeterministicLoss({4}))])
        sender.start()
        sim.run(until=30)
        assert receiver.complete
        assert sender.stats.pto_fired >= 1

    def test_brutal_loss_still_completes(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=50_000,
            hops=[HopSpec(bandwidth_bps=5e6, delay_s=0.005,
                          loss_up=BernoulliLoss(0.3, random.Random(11)))])
        sender.start()
        sim.run(until=110)
        assert receiver.complete

    def test_congestion_event_on_loss(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=300_000,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=BernoulliLoss(0.05, random.Random(5)))])
        sender.start()
        sim.run(until=60)
        assert sender.cc.congestion_events >= 1


class TestAckFrequency:
    def test_sparse_acks_reduce_ack_count(self):
        results = {}
        for every in (2, 16):
            sim, sender, receiver, _ = make_pair(total_bytes=300_000)
            receiver.ack_policy.update(ack_every=every, max_delay_s=0.05)
            sender.start()
            sim.run(until=60)
            assert receiver.complete
            results[every] = receiver.stats.acks_sent
        assert results[16] < results[2] / 3

    def test_ack_frequency_frame_applied(self):
        sim, sender, receiver, _ = make_pair(total_bytes=300_000)
        sender.request_ack_frequency(ack_every=16, max_delay_s=0.04)
        sim.run(until=1)
        assert receiver.ack_policy.ack_every == 16
        assert receiver.ack_policy.max_delay_s == 0.04

    def test_out_of_order_acks_immediately_despite_policy(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=1460 * 30,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=DeterministicLoss({2}))])
        receiver.ack_policy.update(ack_every=64, max_delay_s=0.2)
        sender.start()
        sim.run(until=0.1)
        # The gap after the dropped packet must have forced an early ACK.
        assert receiver.stats.acks_sent >= 1


class TestSidecarHooks:
    def test_send_listener_sees_every_packet(self):
        records = []
        sim, sender, receiver, _ = make_pair(total_bytes=1460 * 8)
        sender.add_send_listener(records.append)
        sender.start()
        sim.run(until=10)
        assert len(records) == sender.stats.packets_sent
        assert all(r.identifier is not None for r in records)

    def test_sidecar_receipt_moves_window_without_acks(self):
        # Black-hole the ACK path so only sidecar feedback can open cwnd.
        sim, sender, receiver, _ = make_pair(
            total_bytes=1460 * 100,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          faults_down=Blackout([(0.0, 60.0)]))],
            sender_attrs={"cc": FixedWindow(4)})
        sender.start()
        sim.run(until=0.05)
        first_burst = sender.stats.packets_sent
        assert first_burst == 4
        sender.sidecar_receipt([0, 1, 2, 3])
        sim.run(until=0.1)
        assert sender.stats.packets_sent > first_burst
        assert sender.stats.sidecar_releases == 4

    def test_sidecar_receipt_idempotent_with_acks(self):
        sim, sender, receiver, _ = make_pair(total_bytes=1460 * 4)
        sender.start()
        sim.run(until=10)
        assert sender.complete
        flight_before = sender.bytes_in_flight
        sender.sidecar_receipt([0, 1])  # already acked: no effect
        assert sender.bytes_in_flight == flight_before
        assert sender.stats.sidecar_releases == 0

    def test_sidecar_loss_triggers_retransmission(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=1460 * 6,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=DeterministicLoss({1}))])
        sender.start()
        sim.run(until=0.015)
        assert not sender.complete
        sender.sidecar_loss([1], congestive=False)
        sim.run(until=10)
        assert receiver.complete
        assert sender.stats.sidecar_losses == 1
        assert sender.stats.retransmitted_packets >= 1

    def test_pto_stays_armed_after_a_quack_released_the_window(self):
        """A quACK retires packets that are still un-acked end to end.
        If they never arrive (lost past the proxy), the probe timeout is
        what is left to repair them: it must not be disarmed just because
        nothing counts as in flight any more."""
        sim, sender, receiver, _ = make_pair(
            total_bytes=1460 * 4,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=DeterministicLoss({0, 1, 2, 3}))],
            sender_attrs={"cc": FixedWindow(4)})
        sender.start()
        sim.run(until=0.001)
        sender.sidecar_receipt([0, 1, 2, 3])
        assert sender.bytes_in_flight == 0
        sim.run(until=10)
        assert sender.stats.pto_fired >= 1
        assert receiver.complete and sender.complete

    def test_cc_from_acks_false_freezes_window_growth(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=500_000, sender_attrs={"cc_from_acks": False})
        initial_cwnd = sender.cc.cwnd
        sender.start()
        sim.run(until=2)
        # ACKs flow but must not grow the window.
        assert sender.stats.acks_received > 0
        assert sender.cc.cwnd == initial_cwnd


class TestThroughHopPath:
    def test_two_hop_transfer(self):
        sim, sender, receiver, _ = make_pair(
            total_bytes=200_000,
            hops=[HopSpec(bandwidth_bps=50e6, delay_s=0.02),
                  HopSpec(bandwidth_bps=10e6, delay_s=0.01)])
        sender.start()
        sim.run(until=30)
        assert receiver.complete
        # Goodput bounded by the narrow hop.
        assert receiver.goodput_bps() < 10e6


class TestRetransmitAttribution:
    """Retransmit trace events must carry their loss-detection cause."""

    def _traced_lossy_run(self):
        from repro import obs

        sim, sender, receiver, _ = make_pair(
            total_bytes=200_000,
            hops=[HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                          loss_up=BernoulliLoss(0.05, random.Random(7)))])
        sink = obs.enable()
        try:
            sender.start()
            sim.run(until=60)
            events = sink.events
        finally:
            obs.disable()
            obs.reset()
        assert receiver.complete
        return sender, events

    def test_every_retransmit_event_tagged(self):
        sender, events = self._traced_lossy_run()
        retransmits = [event for event in events
                       if event.type == "transport.retransmit"]
        assert len(retransmits) >= 1
        assert len(retransmits) == sender.stats.retransmitted_packets
        for event in retransmits:
            assert event.fields["cause"] in ("quack", "ack", "pto")
            assert event.fields["latency"] > 0
            # detection can never beat the one-way delay of the path
            assert event.fields["latency"] >= 0.01
