"""Unit tests for the in-network retransmission proxies (Section 2.3)."""

import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.faults import Corruption, default_corrupter
from repro.netsim.loss import DeterministicLoss
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.frequency import AdaptiveFrequency
from repro.sidecar.protocol import ConfigMessage, control_packet
from repro.sidecar.retransmission import (
    ReceiverSideRetxProxy,
    SenderSideRetxProxy,
)


def build_segment(loss_ordinals=frozenset(), quack_every=4,
                  quack_faults=None):
    """server -- p1 -- p2 -- client with a deterministic lossy middle
    (``quack_faults``: injector on its p2 -> p1 direction)."""
    sim = Simulator()
    server = Host(sim, "server")
    p1, p2 = Router(sim, "p1"), Router(sim, "p2")
    client = Host(sim, "client")
    build_path(sim, [server, p1, p2, client], [
        HopSpec(bandwidth_bps=50e6, delay_s=0.002),
        HopSpec(bandwidth_bps=50e6, delay_s=0.002,
                loss_up=DeterministicLoss(loss_ordinals),
                faults_down=quack_faults),
        HopSpec(bandwidth_bps=50e6, delay_s=0.002),
    ])
    sender_proxy = SenderSideRetxProxy(sim, p1, peer_proxy="p2",
                                       client="client", flow_id="f",
                                       threshold=8, retune_period_s=0.05)
    receiver_proxy = ReceiverSideRetxProxy(
        sim, p2, peer_proxy="p1", client="client", flow_id="f",
        threshold=8, policy=AdaptiveFrequency(initial_every=quack_every,
                                              min_every=2))
    received = []
    client.add_handler(PacketKind.DATA, received.append)
    return sim, server, p1, p2, client, sender_proxy, receiver_proxy, received


def send_data(sim, server, count, start=0, size=1000):
    factory_key = b"retx-test"
    from repro.ids import IdentifierFactory
    factory = IdentifierFactory(factory_key)
    for i in range(start, start + count):
        packet = Packet(src="server", dst="client", size_bytes=size,
                        kind=PacketKind.DATA,
                        identifier=factory.identifier(i), flow_id="f")
        sim.schedule(i * 0.001, server.send, packet)


class TestLocalRepair:
    def test_lost_packet_retransmitted_locally(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment(
            loss_ordinals={2})
        send_data(sim, server, 12)
        sim.run(until=2)
        # All 12 packets arrive despite the loss: #2 was repaired by p1.
        assert len(received) == 12
        assert sp.stats.retransmitted == 1
        assert sp.stats.decode_failures == 0

    def test_repeatedly_lost_packet_retried(self):
        # Ordinals on the lossy link: the retransmission is the 12th
        # packet crossing, so drop it too.  Later traffic must follow for
        # the re-loss to decode as interior-missing (a trailing loss
        # stays "in transit" until more packets arrive -- the documented
        # Section 3.3 semantics).
        sim, server, p1, p2, client, sp, rp, received = build_segment(
            loss_ordinals={2, 12})
        send_data(sim, server, 12)
        sim.schedule(0.5, send_data, sim, server, 8, 12)
        sim.run(until=3)
        assert len(received) == 20
        assert sp.stats.retransmitted == 2

    def test_no_loss_no_retransmissions(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        send_data(sim, server, 20)
        sim.run(until=2)
        assert len(received) == 20
        assert sp.stats.retransmitted == 0
        assert sp.stats.confirmed > 0

    def test_log_drains_after_confirmation(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        send_data(sim, server, 16)
        sim.run(until=2)
        # Only the tail that never hit a quACK boundary stays logged.
        assert sp.consumer.outstanding <= 4

    def test_loss_ratio_observed(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment(
            loss_ordinals=set(range(0, 40, 10)))
        send_data(sim, server, 40)
        sim.run(until=2)
        assert 0.0 < sp.observed_loss_ratio() <= 0.3


class TestCorruptQuack:
    def test_flipped_frame_is_counted_and_dropped(self):
        # Flip bits in the first quACK p2 sends to p1: the checksum
        # catches it, p1 counts a decode failure and keeps its log, and
        # the next intact quACK (cumulative) still repairs the loss.
        flipped = []

        def first_only(packet, rng):
            if flipped:
                return None
            flipped.append(packet)
            return default_corrupter(packet, rng)

        sim, server, p1, p2, client, sp, rp, received = build_segment(
            loss_ordinals={2},
            quack_faults=Corruption(1.0, seed=11, kinds=[PacketKind.QUACK],
                                    corrupter=first_only))
        send_data(sim, server, 12)
        sim.run(until=2)
        assert len(flipped) == 1
        assert sp.stats.decode_failures == 1
        assert sp.stats.retransmitted == 1
        assert len(received) == 12


class TestAdaptiveCadence:
    def test_retune_message_applied(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        message = ConfigMessage(flow_id="f", every_n=64)
        p1.send(control_packet("p1", "p2", message, 0.0))
        sim.run(until=1)
        assert rp.policy.every_n == 64
        assert rp.retunes_applied == 1

    def test_retune_clamped_to_policy_bounds(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        message = ConfigMessage(flow_id="f", every_n=10_000)
        p1.send(control_packet("p1", "p2", message, 0.0))
        sim.run(until=1)
        assert rp.policy.every_n == rp.policy.max_every

    def test_proxy_retunes_on_its_own(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        send_data(sim, server, 80)
        sim.run(until=3)
        # Enough traffic crossed (>=50 outcomes) for a retune round trip.
        assert sp.stats.retunes_sent >= 1
        assert rp.retunes_applied >= 1
        # Clean link -> cadence relaxes toward max_every.
        assert rp.policy.every_n > 4

    def test_other_flows_ignored(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        message = ConfigMessage(flow_id="other", every_n=64)
        p1.send(control_packet("p1", "p2", message, 0.0))
        sim.run(until=1)
        assert rp.retunes_applied == 0


class TestBufferBound:
    def test_eviction_under_pressure(self):
        sim = Simulator()
        server = Host(sim, "server")
        p1, p2 = Router(sim, "p1"), Router(sim, "p2")
        client = Host(sim, "client")
        build_path(sim, [server, p1, p2, client],
                   [HopSpec(), HopSpec(), HopSpec()])
        proxy = SenderSideRetxProxy(sim, p1, peer_proxy="p2",
                                    client="client", flow_id="f",
                                    threshold=8, max_buffer=10)
        client.add_handler(PacketKind.DATA, lambda p: None)
        send_data(sim, server, 30)
        sim.run(until=2)
        assert proxy.stats.evicted > 0
        assert proxy.consumer.outstanding <= 10
