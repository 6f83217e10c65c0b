"""Unit tests for the in-network retransmission proxies (Section 2.3)."""

import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.faults import Blackout, Corruption, default_corrupter
from repro.netsim.loss import DeterministicLoss
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.agents import ProxyEmitterTap
from repro.sidecar.frequency import AdaptiveFrequency
from repro.sidecar.protocol import ConfigMessage, ResetMessage, control_packet
from repro.sidecar.retransmission import SenderSideRetxProxy
from repro.transport.connection import ReceiverConnection, SenderConnection


def build_segment(loss_ordinals=frozenset(), quack_every=4,
                  quack_faults=None, control_faults=None):
    """server -- p1 -- p2 -- client with a deterministic lossy middle
    (``quack_faults``: injector on its p2 -> p1 direction,
    ``control_faults``: on p1 -> p2)."""
    sim = Simulator()
    server = Host(sim, "server")
    p1, p2 = Router(sim, "p1"), Router(sim, "p2")
    client = Host(sim, "client")
    build_path(sim, [server, p1, p2, client], [
        HopSpec(bandwidth_bps=50e6, delay_s=0.002),
        HopSpec(bandwidth_bps=50e6, delay_s=0.002,
                loss_up=DeterministicLoss(loss_ordinals),
                faults_up=control_faults, faults_down=quack_faults),
        HopSpec(bandwidth_bps=50e6, delay_s=0.002),
    ])
    sender_proxy = SenderSideRetxProxy(sim, p1, peer_proxy="p2",
                                       client="client", flow_id="f",
                                       threshold=8, retune_period_s=0.05)
    receiver_proxy = ProxyEmitterTap(
        sim, p2, server="p1", client="client", flow_id="f", threshold=8,
        policy=AdaptiveFrequency(initial_every=quack_every, min_every=2))
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


class TestReset:
    """The Section 3.3 reset at an in-path observer, which cannot pause."""

    @pytest.mark.parametrize("announcement_lost", [False, True])
    def test_threshold_overflow_heals(self, announcement_lost):
        # Twelve consecutive losses against a threshold of eight: no
        # later quACK of the epoch can decode.  With a blackout on the
        # hop's control traffic the first announcements die too, p2
        # adopts late, and what p1 logged meanwhile overflows once more.
        outage = Blackout([(0.0, 0.6)], kinds=[PacketKind.CONTROL]) \
            if announcement_lost else None
        sim, server, p1, p2, client, sp, rp, received = build_segment(
            loss_ordinals=set(range(20, 32)) | {3000, 3300, 3600},
            control_faults=outage)
        total = 1460 * 4000
        receiver = ReceiverConnection(sim, client, "server", total,
                                      flow_id="f")
        sender = SenderConnection(sim, server, "client", total, flow_id="f")
        sender.start()
        while sim.now < 30.0 and not receiver.complete:
            sim.run(until=sim.now + 0.05)
        assert receiver.complete
        assert sp.stats.resets_initiated == (2 if announcement_lost else 1)
        assert rp.epoch == sp.epoch == sp.stats.resets_initiated
        assert (sp.stats.reset_retries > 0) == announcement_lost
        # Local repair works again in the new epoch: the three late
        # losses, and only they, were repaired at p1.
        assert sp.stats.retransmitted == 3
        assert sp.reset.consecutive_failures == 0
        assert receiver.stats.duplicate_packets == 0

    def test_reset_message_applied_at_the_receiver_side(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        send_data(sim, server, 6)
        p1.send(control_packet("p1", "p2",
                               ResetMessage(flow_id="f", epoch=3), 0.0))
        sim.run(until=1)
        assert rp.epoch == 3 and rp.resets_applied == 1


class TestAdaptiveCadence:
    def test_retune_message_applied(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        message = ConfigMessage(flow_id="f", every_n=64)
        p1.send(control_packet("p1", "p2", message, 0.0))
        sim.run(until=1)
        assert rp.policy.every_n == 64

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
        # Clean link -> cadence relaxes toward max_every.
        assert rp.policy.every_n > 4

    def test_other_flows_ignored(self):
        sim, server, p1, p2, client, sp, rp, received = build_segment()
        message = ConfigMessage(flow_id="other", every_n=64)
        p1.send(control_packet("p1", "p2", message, 0.0))
        sim.run(until=1)
        assert rp.policy.every_n == 4


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
