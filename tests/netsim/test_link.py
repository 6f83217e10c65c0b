"""Tests for links (repro.netsim.link)."""

import pytest

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.loss import BernoulliLoss, DeterministicLoss
from repro.netsim.packet import Packet


def make_link(sim, sink, bw=8e6, delay=0.01, **kwargs):
    return Link(sim, bw, delay, lambda p: sink.append((sim.now, p)), **kwargs)


def packet(size=1000):
    return Packet(src="a", dst="b", size_bytes=size)


class TestTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, bw=8e6, delay=0.01)
        link.send(packet(1000))  # 1000 B at 8 Mbps = 1 ms
        sim.run()
        assert len(sink) == 1
        assert sink[0][0] == pytest.approx(0.011)

    def test_back_to_back_serialization(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, bw=8e6, delay=0.0)
        link.send(packet(1000))
        link.send(packet(1000))
        sim.run()
        times = [t for t, _ in sink]
        assert times == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_fifo_order_preserved(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink)
        packets = [packet() for _ in range(10)]
        for p in packets:
            link.send(p)
        sim.run()
        assert [p.uid for _, p in sink] == [p.uid for p in packets]

    def test_serialization_delay_helper(self):
        # 1250 B at 1 Mbps: 10 ms on the wire before propagation starts.
        sim = Simulator()
        sink = []
        make_link(sim, sink, bw=1e6, delay=0.0).send(packet(1250))
        sim.run()
        assert sink[0][0] == pytest.approx(0.01)

    def test_rtt_contribution(self):
        # The link adds its propagation delay, whatever the bandwidth.
        sim = Simulator()
        sink = []
        make_link(sim, sink, bw=1e12, delay=0.033).send(packet(125))
        sim.run()
        assert sink[0][0] == pytest.approx(0.033)


class TestQueueing:
    def test_drop_tail_when_full(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, queue_packets=3)
        accepted = [link.send(packet()) for _ in range(6)]
        assert accepted == [True, True, True, False, False, False]
        sim.run()
        assert len(sink) == 3
        assert link.stats.dropped_queue == 3
        assert link.stats.offered == 6

    def test_queue_depth(self):
        sim = Simulator()
        link = make_link(sim, [])
        for _ in range(4):
            link.send(packet())
        assert link.queue_depth == 4
        sim.run()
        assert link.queue_depth == 0

    def test_queue_drains_then_accepts_more(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, queue_packets=2)
        link.send(packet())
        link.send(packet())
        assert not link.send(packet())
        sim.run()
        assert link.send(packet())
        sim.run()
        assert len(sink) == 3


class TestLossAccounting:
    def test_loss_applied_after_serialization(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, loss_model=DeterministicLoss({1}))
        for _ in range(3):
            link.send(packet())
        sim.run()
        assert len(sink) == 2
        assert link.stats.dropped_loss == 1
        assert link.stats.delivered == 2
        assert link.stats.loss_rate == pytest.approx(1 / 3)

    def test_lost_packet_still_occupies_the_wire(self):
        """A dropped packet consumes its serialization slot (it was sent,
        then lost) -- later packets are not sped up."""
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, bw=8e6, delay=0.0,
                         loss_model=DeterministicLoss({0}))
        link.send(packet(1000))
        link.send(packet(1000))
        sim.run()
        assert len(sink) == 1
        assert sink[0][0] == pytest.approx(0.002)

    def test_bytes_delivered(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink)
        link.send(packet(700))
        link.send(packet(300))
        sim.run()
        assert link.stats.bytes_delivered == 1000

    def test_loss_rate_with_no_traffic(self):
        sim = Simulator()
        assert make_link(sim, []).stats.loss_rate == 0.0


class TestValidation:
    def test_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, 0, 0.01, lambda p: None)
        with pytest.raises(SimulationError):
            Link(sim, 1e6, -1, lambda p: None)
        with pytest.raises(SimulationError):
            Link(sim, 1e6, 0.01, lambda p: None, queue_packets=0)

    def test_repr(self):
        sim = Simulator()
        link = Link(sim, 20e6, 0.005, lambda p: None, name="up")
        assert "up" in repr(link) and "20.0 Mbps" in repr(link)


class TestEventBudget:
    def test_one_event_per_packet_per_hop(self, monkeypatch):
        """Machine-independent pin of the simulator's per-hop cost: a
        seed-1, 120 kB dense-ACK transfer over two hops dispatches one
        event per packet per hop (it took 500, two per hop, when
        serialisation ended on a timer)."""
        from repro.sidecar import ack_reduction
        from repro.transport import connection

        made = []

        class Recording(Simulator):
            def __init__(self):
                super().__init__()
                made.append(self)

        # Every scenario builds its simulator in ``Transfer``.
        monkeypatch.setattr(connection, "Simulator", Recording)
        result = ack_reduction.run_ack_reduction(
            total_bytes=120_000, ack_every=2, sidecar=False, loss_rate=0.0,
            seed=1)
        assert result.completed
        packets = result.server_packets_sent + result.client_acks_sent
        assert (result.server_packets_sent, result.client_acks_sent) \
            == (83, 42)
        [sim] = made
        assert sim.events_dispatched == 2 * packets == 250

    def test_call_budget_per_packet(self):
        """Interpreter work on the per-packet path, pinned the same way:
        the same transfer under cProfile, counting calls into functions
        defined in ``repro`` only (builtins and the standard library
        vary across Python versions): 33.2 calls per packet, with 5%
        headroom."""
        import cProfile
        import os
        import pstats

        import repro
        from repro.sidecar import ack_reduction

        profile = cProfile.Profile()
        profile.enable()
        try:
            result = ack_reduction.run_ack_reduction(
                total_bytes=120_000, ack_every=2, sidecar=False,
                loss_rate=0.0, seed=1)
        finally:
            profile.disable()
        package = os.path.dirname(repro.__file__) + os.sep
        calls = sum(entry[1] for (filename, _line, _name), entry
                    in pstats.Stats(profile).stats.items()
                    if filename.startswith(package))
        packets = result.server_packets_sent + result.client_acks_sent
        assert packets == 125
        assert calls / packets <= 33.2 * 1.05, calls / packets
