"""Tests for ECN marking, echo, and response (extension X4).

Section 2.2: "end-to-end ACKs may convey Explicit Congestion
Notification (ECN) information" -- one of the roles quACKs cannot
fulfill, since the CE mark rides the IP header of the *data* packet and
is echoed inside the encrypted ACK.
"""

import pytest

from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.transport.connection import ReceiverConnection, SenderConnection


class TestLinkMarking:
    def test_marks_above_threshold(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, 8e6, 0.001, delivered.append, ecn_threshold=2)
        for _ in range(5):
            link.send(Packet(src="a", dst="b", size_bytes=1000))
        sim.run()
        # Packets 0-1 arrive to queue depths 0,1 (unmarked); 2-4 to depths
        # 2,3,4 (marked).
        marks = [p.ecn_ce for p in delivered]
        assert marks == [False, False, True, True, True]
        assert link.stats.ce_marked == 3

    def test_no_threshold_no_marks(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, 8e6, 0.001, delivered.append)
        for _ in range(10):
            link.send(Packet(src="a", dst="b", size_bytes=1000))
        sim.run()
        assert not any(p.ecn_ce for p in delivered)

    def test_threshold_validation(self):
        from repro.errors import SimulationError
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, 8e6, 0.001, lambda p: None, ecn_threshold=0)

    def test_already_marked_not_recounted(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, 8e6, 0.001, delivered.append, ecn_threshold=1)
        first = Packet(src="a", dst="b", size_bytes=100, ecn_ce=True)
        link.send(first)
        link.send(Packet(src="a", dst="b", size_bytes=100))
        sim.run()
        assert link.stats.ce_marked == 1  # only the second was newly marked


class TestEndToEndEcn:
    def make(self, ecn_threshold, total=400_000):
        sim = Simulator()
        server, client = Host(sim, "server"), Host(sim, "client")
        # A narrow hop behind a fast sender: the queue builds in slow
        # start, the AQM marks instead of dropping.
        topology = build_path(sim, [server, client],
                              [HopSpec(bandwidth_bps=10e6, delay_s=0.01,
                                       ecn_threshold=ecn_threshold)])
        for link in topology.links_up + topology.links_down:
            link.queue_packets = 512
        receiver = ReceiverConnection(sim, client, "server", total)
        sender = SenderConnection(sim, server, "client", total)
        sender.start()
        sim.run(until=60)
        return sender, receiver

    def test_receiver_echoes_ce_count(self):
        sender, receiver = self.make(ecn_threshold=8)
        assert receiver.complete
        assert receiver.ce_count > 0
        assert sender._ce_echoed == receiver.ce_count

    def test_sender_responds_to_ce_without_loss(self):
        marked_sender, _ = self.make(ecn_threshold=8)
        plain_sender, _ = self.make(ecn_threshold=None)
        # With marking, congestion events occur despite zero loss (the
        # 512-packet queue never fills once ECN backs the sender off)...
        assert marked_sender.cc.congestion_events > 0
        assert marked_sender.stats.losses_detected == 0
        # ...and the window backs off relative to the unmarked run.
        assert marked_sender.cc.congestion_events >= \
            plain_sender.cc.congestion_events

    def test_ecn_keeps_queues_shorter_than_droptail(self):
        """The point of marking early: back off before the queue fills."""
        marked_sender, marked_receiver = self.make(ecn_threshold=8)
        plain_sender, plain_receiver = self.make(ecn_threshold=None)
        assert marked_receiver.complete and plain_receiver.complete
        # ECN avoids the slow-start overshoot retransmissions.
        assert marked_sender.stats.retransmitted_packets <= \
            plain_sender.stats.retransmitted_packets

    def test_ce_response_once_per_batch(self):
        """Cumulative echo: a stream of ACKs repeating the same CE count
        causes one response, not one per ACK."""
        sender, receiver = self.make(ecn_threshold=8)
        # Many more ACKs arrived than congestion events occurred.
        assert sender.stats.acks_received > 5 * sender.cc.congestion_events


class TestReceiverCeCount:
    def test_duplicated_ce_packet_counts_once(self):
        """RFC 9000 section 13.4.1: CE marks are counted per packet
        number, so a network duplicate of a marked packet adds none."""
        from repro.transport.frames import HEADER_BYTES, DataFrame

        sim = Simulator()
        server, client = Host(sim, "server"), Host(sim, "client")
        build_path(sim, [server, client],
                   [HopSpec(bandwidth_bps=10e6, delay_s=0.01)])
        server.add_handler(PacketKind.ACK, lambda packet: None)
        receiver = ReceiverConnection(sim, client, "server", 10_000)

        def data(packet_number, offset):
            packet = Packet.sealed(
                "server", "client", HEADER_BYTES + 1000, key=receiver.key,
                payload=DataFrame(packet_number=packet_number, offset=offset,
                                  length=1000, fin=False))
            packet.ecn_ce = True
            return packet

        marked = data(0, 0)
        client.receive(marked)
        client.receive(marked)  # the network duplicated it
        client.receive(data(1, 1000))
        assert receiver.stats.duplicate_packets == 1
        assert receiver.ce_count == 2
