"""Tests for sidecar wire messages and the host/proxy agents."""

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.agents import HostEmitterAgent, ProxyEmitterTap, ServerSidecar
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency
from repro.sidecar.protocol import (
    ConfigMessage,
    QuackMessage,
    control_packet,
    quack_packet,
)
from repro.transport.connection import ReceiverConnection, SenderConnection


class TestProtocolMessages:
    def test_quack_packet_roundtrip(self):
        quack = PowerSumQuack(threshold=4)
        quack.insert_many([7, 8, 9])
        packet = quack_packet("client", "proxy", quack, "flow0", now=1.5)
        assert packet.kind is PacketKind.QUACK
        assert packet.src == "client" and packet.dst == "proxy"
        assert packet.identifier is None
        message = packet.payload
        assert isinstance(message, QuackMessage)
        assert message.quack() == quack

    def test_quack_packet_size_tracks_payload(self):
        small = PowerSumQuack(threshold=4)
        large = PowerSumQuack(threshold=40)
        p_small = quack_packet("a", "b", small, "f", 0.0)
        p_large = quack_packet("a", "b", large, "f", 0.0)
        assert p_large.size_bytes - p_small.size_bytes == 36 * 4

    def test_quack_packet_without_count(self):
        quack = PowerSumQuack(threshold=4)
        quack.insert_many([1, 2, 3])
        packet = quack_packet("a", "b", quack, "f", 0.0, include_count=False)
        message = packet.payload
        assert message.quack(implicit_count=3) == quack

    def test_quack_message_rejects_non_power_sum(self):
        from repro.quack import wire
        from repro.quack.strawman import EchoQuack
        message = QuackMessage(frame=wire.encode(EchoQuack()), flow_id="f")
        with pytest.raises(TypeError):
            message.quack()

    def test_config_packet(self):
        message = ConfigMessage(flow_id="f", every_n=64)
        packet = control_packet("p1", "p2", message, now=2.0)
        assert packet.kind is PacketKind.CONTROL
        assert packet.payload.every_n == 64


def build_scenario(total_bytes=1460 * 40):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.005),
                HopSpec(bandwidth_bps=20e6, delay_s=0.005)])
    receiver = ReceiverConnection(sim, client, "server", total_bytes)
    sender = SenderConnection(sim, server, "client", total_bytes)
    return sim, server, proxy, client, sender, receiver


class TestHostEmitterAgent:
    def test_emits_quacks_toward_peer(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        agent = HostEmitterAgent(sim, client, peer="proxy", flow_id="flow0",
                                 policy=PacketCountFrequency(8), threshold=8)
        seen = []
        proxy.add_tap(lambda p: seen.append(p)
                      if p.kind is PacketKind.QUACK else None)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        assert agent.quacks_sent >= 4
        assert len(seen) == agent.quacks_sent

    def test_interval_timer_flushes_partial_batches(self):
        sim, server, proxy, client, sender, receiver = build_scenario(
            total_bytes=1460 * 3)
        agent = HostEmitterAgent(sim, client, peer="proxy", flow_id="flow0",
                                 policy=IntervalFrequency(0.020), threshold=8)
        sender.start()
        sim.run(until=1.0)
        assert receiver.complete
        # 3 packets never hit a packet-count trigger; the timer must fire.
        assert agent.quacks_sent >= 1

    def test_ignores_other_flows(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        agent = HostEmitterAgent(sim, client, peer="proxy",
                                 flow_id="other-flow",
                                 policy=PacketCountFrequency(1))
        sender.start()
        sim.run(until=5)
        assert agent.quacks_sent == 0


class TestServerSidecar:
    def test_receipts_credit_the_window(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                              flow_id="flow0",
                              policy=PacketCountFrequency(2), threshold=8)
        sidecar = ServerSidecar(sim, sender, threshold=8, grace=2)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        assert sidecar.stats.quacks_received > 0
        assert sidecar.stats.decode_failures == 0
        assert sender.stats.sidecar_releases > 0

    def test_consumer_log_drains(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        ProxyEmitterTap(sim, proxy, server="server", client="client",
                        flow_id="flow0", policy=PacketCountFrequency(2),
                        threshold=8)
        sidecar = ServerSidecar(sim, sender, threshold=8, grace=2)
        sender.start()
        sim.run(until=10)
        # Everything was delivered and quACKed; nearly nothing outstanding
        # (at most the final sub-batch that never triggered a quACK).
        assert sidecar.consumer.outstanding <= 2


class TestProxyEmitterTap:
    def test_only_data_toward_client_counts(self):
        sim, server, proxy, client, sender, receiver = build_scenario()
        tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                              flow_id="flow0",
                              policy=PacketCountFrequency(2), threshold=8)
        # No sidecar library on the server in this test: sink its quACKs.
        server.add_handler(PacketKind.QUACK, lambda p: None)
        sender.start()
        sim.run(until=10)
        assert receiver.complete
        # ACKs flowed through the proxy too, but only DATA was observed.
        assert tap.emitter.stats.observed == receiver.stats.packets_received
