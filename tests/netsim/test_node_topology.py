"""Tests for nodes, routing, and topology building."""

import pytest

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path


def data(src, dst, size=100, kind=PacketKind.DATA):
    return Packet(src=src, dst=dst, size_bytes=size, kind=kind)


class TestHost:
    def test_dispatch_by_kind(self):
        sim = Simulator()
        host = Host(sim, "h")
        got = {"data": [], "ack": []}
        host.add_handler(PacketKind.DATA, got["data"].append)
        host.add_handler(PacketKind.ACK, got["ack"].append)
        host.receive(data("x", "h"))
        host.receive(data("x", "h", kind=PacketKind.ACK))
        assert len(got["data"]) == 1 and len(got["ack"]) == 1
        assert host.received_count == 2

    def test_multiple_handlers_same_kind(self):
        sim = Simulator()
        host = Host(sim, "h")
        calls = []
        host.add_handler(PacketKind.DATA, lambda p: calls.append("first"))
        host.add_handler(PacketKind.DATA, lambda p: calls.append("second"))
        host.receive(data("x", "h"))
        assert calls == ["first", "second"]

    def test_no_handler_is_an_error(self):
        host = Host(Simulator(), "h")
        with pytest.raises(SimulationError, match="no handler"):
            host.receive(data("x", "h"))

    def test_misdelivered_packet_rejected(self):
        host = Host(Simulator(), "h")
        with pytest.raises(SimulationError, match="addressed"):
            host.receive(data("x", "other"))

    def test_send_requires_route(self):
        host = Host(Simulator(), "h")
        with pytest.raises(SimulationError, match="no route"):
            host.send(data("h", "far"))

    def test_send_to_self_rejected(self):
        host = Host(Simulator(), "h")
        with pytest.raises(SimulationError):
            host.send(data("h", "h"))

    def test_route_without_link_rejected(self):
        host = Host(Simulator(), "h")
        host.add_route("far", "neighbor")
        with pytest.raises(SimulationError, match="no link"):
            host.send(data("h", "far"))


class TestRouter:
    def build(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        router = Router(sim, "r")
        topo = build_path(sim, [a, router, b], [HopSpec(), HopSpec()])
        return sim, a, router, b, topo

    def test_forwards_toward_destination(self):
        sim, a, router, b, _ = self.build()
        got = []
        b.add_handler(PacketKind.DATA, got.append)
        a.send(data("a", "b"))
        sim.run()
        assert len(got) == 1
        assert router.forwarded_count == 1

    def test_taps_observe_forwarded_packets(self):
        sim, a, router, b, _ = self.build()
        b.add_handler(PacketKind.DATA, lambda p: None)
        seen = []
        router.add_tap(seen.append)
        a.send(data("a", "b"))
        sim.run()
        assert len(seen) == 1

    def test_packet_addressed_to_router_terminates_there(self):
        sim, a, router, b, _ = self.build()
        seen = []
        router.add_tap(seen.append)
        a.send(data("a", "r", kind=PacketKind.QUACK))
        sim.run()
        assert len(seen) == 1
        assert router.forwarded_count == 0

    def test_policy_custody(self):
        sim, a, router, b, _ = self.build()
        got = []
        b.add_handler(PacketKind.DATA, got.append)
        held = []

        class Holder:
            def on_packet(self, packet):
                held.append(packet)
                return False  # take custody

        router.policy = Holder()
        a.send(data("a", "b"))
        sim.run()
        assert got == [] and len(held) == 1
        # The policy can release later via emit().
        router.emit(held[0])
        sim.run()
        assert len(got) == 1

    def test_policy_pass_through(self):
        sim, a, router, b, _ = self.build()
        got = []
        b.add_handler(PacketKind.DATA, got.append)

        class PassThrough:
            def on_packet(self, packet):
                return True

        router.policy = PassThrough()
        a.send(data("a", "b"))
        sim.run()
        assert len(got) == 1


class TestBuildPath:
    def test_chain_routing_end_to_end(self):
        sim = Simulator()
        nodes = [Host(sim, "h0"), Router(sim, "r1"), Router(sim, "r2"),
                 Host(sim, "h3")]
        build_path(sim, nodes, [HopSpec()] * 3)
        got = []
        nodes[3].add_handler(PacketKind.DATA, got.append)
        nodes[0].add_handler(PacketKind.DATA, got.append)
        nodes[0].send(data("h0", "h3"))
        sim.run()
        assert len(got) == 1
        # And the reverse direction.
        nodes[3].send(data("h3", "h0"))
        sim.run()
        assert len(got) == 2

    def test_intermediate_destinations_routable(self):
        sim = Simulator()
        nodes = [Host(sim, "h0"), Router(sim, "r1"), Host(sim, "h2")]
        build_path(sim, nodes, [HopSpec(), HopSpec()])
        seen = []
        nodes[1].add_tap(seen.append)
        nodes[0].send(data("h0", "r1", kind=PacketKind.QUACK))
        sim.run()
        assert len(seen) == 1

    def test_base_rtt(self):
        # Both directions of a hop carry its delay: a small echo comes
        # back after twice the delay plus two 8 us serializations.
        sim = Simulator()
        nodes = [Host(sim, "a"), Host(sim, "b")]
        build_path(sim, nodes, [HopSpec(bandwidth_bps=100e6, delay_s=0.01)])
        nodes[1].add_handler(PacketKind.DATA,
                             lambda packet: nodes[1].send(data("b", "a")))
        returned = []
        nodes[0].add_handler(PacketKind.DATA,
                             lambda packet: returned.append(sim.now))
        nodes[0].send(data("a", "b"))
        sim.run()
        assert returned == [pytest.approx(0.02 + 2 * 8e-6)]

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            build_path(sim, [Host(sim, "a")], [])
        with pytest.raises(SimulationError):
            build_path(sim, [Host(sim, "a"), Host(sim, "b")], [])
        with pytest.raises(SimulationError):
            build_path(sim, [Host(sim, "x"), Host(sim, "x")], [HopSpec()])
