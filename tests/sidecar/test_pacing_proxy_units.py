"""Unit tests for the CC-division pacing proxy internals."""

import dataclasses
import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.faults import flip_frame_bits
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.cc_division import RESET_AFTER_FAILURES, PacingProxy
from repro.sidecar.protocol import ResetMessage, quack_packet
from repro.transport.cc.fixed import FixedWindow

#: An identifier nobody sent: an emitter that folded it has diverged
#: from its peer's log, and every quACK it emits fails to decode.
PHANTOM = 0xDEADBEEF


def build_proxy(buffer_packets=4, controller=None):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
    agent = PacingProxy(sim, proxy, server="server", client="client",
                        flow_id="f", threshold=8,
                        buffer_packets=buffer_packets,
                        controller=controller)
    delivered = []
    client.add_handler(PacketKind.DATA, delivered.append)
    server.add_handler(PacketKind.QUACK, lambda p: None)
    return sim, server, proxy, client, agent, delivered


def data_packet(identifier, flow_id="f"):
    return Packet(src="server", dst="client", size_bytes=1500,
                  kind=PacketKind.DATA, identifier=identifier,
                  flow_id=flow_id)


class TestCustody:
    def test_takes_custody_of_matching_data(self):
        sim, server, proxy, client, agent, delivered = build_proxy()
        server.send(data_packet(1))
        sim.run(until=1)
        assert agent.stats.taken_custody == 1
        assert agent.stats.forwarded == 1
        assert len(delivered) == 1

    def test_other_flows_pass_through_untouched(self):
        sim, server, proxy, client, agent, delivered = build_proxy()
        server.send(data_packet(1, flow_id="other"))
        sim.run(until=1)
        assert agent.stats.taken_custody == 0
        assert len(delivered) == 1

    def test_acks_pass_through(self):
        sim, server, proxy, client, agent, delivered = build_proxy()
        acks = []
        server.add_handler(PacketKind.ACK, acks.append)
        client.send(Packet(src="client", dst="server", size_bytes=52,
                           kind=PacketKind.ACK, flow_id="f"))
        sim.run(until=1)
        assert len(acks) == 1
        assert agent.stats.taken_custody == 0

    def test_buffer_overflow_drops(self):
        # A window of 1 packet wedges the drain; the 4-packet buffer then
        # overflows.
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=4, controller=FixedWindow(1))
        for i in range(8):
            server.send(data_packet(100 + i))
        sim.run(until=0.2)
        assert agent.stats.buffer_drops > 0
        assert agent.stats.max_buffer_depth <= 4

    def test_window_gates_forwarding(self):
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(2))
        for i in range(6):
            server.send(data_packet(200 + i))
        sim.run(until=0.2)
        # Only 2 packets' worth of window, no quACK feedback yet.
        assert agent.stats.forwarded == 2
        assert agent.buffer_depth == 4


class TestQuackFeedback:
    def test_client_quack_opens_the_window(self):
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(2))
        for i in range(4):
            server.send(data_packet(300 + i))
        sim.run(until=0.1)
        assert agent.stats.forwarded == 2
        # The client quACKs the two forwarded packets.
        receiver_quack = PowerSumQuack(8)
        for i in range(2):
            receiver_quack.insert(300 + i)
        client.send(quack_packet("client", "proxy", receiver_quack, "f",
                                 sim.now))
        sim.run(until=0.3)
        assert agent.stats.quacks_from_client == 1
        assert agent.stats.decode_failures == 0
        assert agent.stats.forwarded == 4  # window freed, rest drained

    def test_corrupt_client_quack_is_counted_and_dropped(self):
        # One flipped bit fails the frame checksum.  That must cost the
        # proxy one datagram, not the simulation: classified like
        # ServerSidecar does, session state untouched.
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(2))
        for i in range(4):
            server.send(data_packet(300 + i))
        sim.run(until=0.1)
        receiver_quack = PowerSumQuack(8)
        for i in range(2):
            receiver_quack.insert(300 + i)
        good = quack_packet("client", "proxy", receiver_quack, "f", sim.now)
        mangled = dataclasses.replace(good, payload=dataclasses.replace(
            good.payload, frame=flip_frame_bits(good.payload.frame,
                                                random.Random(7),
                                                max_flips=1)))
        outstanding = agent.consumer.outstanding
        client.send(mangled)
        sim.run(until=0.2)
        assert agent.stats.quacks_from_client == 1
        assert agent.stats.decode_failures == 1
        assert agent.consumer.outstanding == outstanding
        assert agent.stats.forwarded == 2  # window still shut
        # The intact snapshot afterwards decodes as if nothing happened.
        client.send(good)
        sim.run(until=0.4)
        assert agent.stats.decode_failures == 1
        assert agent.stats.forwarded == 4

    def test_expire_sweep_releases_stuck_window(self):
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(2))
        agent.expire_age = 0.3
        for i in range(4):
            server.send(data_packet(400 + i))
        sim.run(until=0.1)
        assert agent.stats.forwarded == 2
        # No quACKs ever arrive; the sweep must eventually give up on the
        # unconfirmed packets and drain the rest.
        sim.run(until=3.0)
        assert agent.stats.forwarded == 4


class TestReset:
    """The Section 3.3 reset at a holder whose pause is "stop draining"."""

    @staticmethod
    def quack_of(identifiers, now, epoch=0):
        snapshot = PowerSumQuack(8)
        for identifier in identifiers:
            snapshot.insert(identifier)
        return quack_packet("client", "proxy", snapshot, "f", now,
                            epoch=epoch)

    def test_custody_is_conserved_across_a_reset(self):
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(4))
        controls = []
        client.add_handler(PacketKind.CONTROL, controls.append)
        for i in range(7):
            server.send(data_packet(500 + i))
        sim.run(until=0.1)
        assert agent.stats.forwarded == 4 and agent.buffer_depth == 3
        # The client's emitter folded a phantom: every quACK it sends is
        # now undecodable.
        for _ in range(RESET_AFTER_FAILURES):
            client.send(self.quack_of((*range(500, 504), PHANTOM), sim.now))
        stats = agent.stats
        while sim.now < 3.0:  # through both settle windows and two sweeps
            sim.run(until=sim.now + 0.01)
            assert stats.taken_custody == stats.forwarded + agent.buffer_depth
            assert agent._in_flight_bytes >= 0
            if agent.reset.settling:
                assert stats.forwarded == 4  # custody kept, not drained
            elif agent.epoch == 1 and sim.now < 1.0:  # until a sweep expires
                # The new epoch started with nothing in flight.
                assert agent._in_flight_bytes == 1500 * (stats.forwarded - 4)
        assert stats.decode_failures == RESET_AFTER_FAILURES
        assert stats.resets_initiated == 1 and agent.epoch == 1
        # A fresh window in the new epoch: the rest of the buffer went.
        assert stats.forwarded == 7 and len(delivered) == 7
        assert agent._in_flight_bytes == 0  # swept: nobody quACKed them
        assert controls and all(
            packet.payload == ResetMessage(flow_id="f", epoch=1)
            for packet in controls)

    def test_stale_epoch_quack_is_answered_with_a_repeat(self):
        sim, server, proxy, client, agent, delivered = build_proxy(
            buffer_packets=64, controller=FixedWindow(4))
        controls = []
        client.add_handler(PacketKind.CONTROL, controls.append)
        for i in range(4):
            server.send(data_packet(600 + i))
        sim.run(until=0.1)
        for _ in range(RESET_AFTER_FAILURES):
            client.send(self.quack_of((*range(600, 604), PHANTOM), sim.now))
        sim.run(until=0.5)
        assert agent.epoch == 1 and not agent.reset.confirmed
        # A snapshot of the new epoch confirms it: the retry clock stops.
        client.send(self.quack_of((), sim.now, epoch=1))
        sim.run(until=0.6)
        assert agent.reset.confirmed
        announcements = len(controls)
        # The emitter of a lost announcement would still speak epoch 0.
        client.send(self.quack_of(range(600, 604), sim.now, epoch=0))
        sim.run(until=3.0)
        assert agent.stats.stale_epoch_quacks == 1
        assert len(controls) == announcements + 1
        assert controls[-1].payload == ResetMessage(flow_id="f", epoch=1)
