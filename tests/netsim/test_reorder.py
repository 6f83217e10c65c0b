"""Tests for the reordering (jitter) link extension."""

import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.packet import Packet
from tests.netsim.reorder import JitterLink


def packet(size=1000):
    return Packet(src="a", dst="b", size_bytes=size)


class TestJitterLink:
    def test_zero_jitter_is_fifo(self):
        sim = Simulator()
        sink = []
        link = JitterLink(sim, 8e6, 0.01, lambda p: sink.append(p.uid),
                          jitter_s=0.0)
        packets = [packet() for _ in range(20)]
        for p in packets:
            link.send(p)
        sim.run()
        assert sink == [p.uid for p in packets]

    def test_jitter_actually_reorders(self):
        sim = Simulator()
        sink = []
        # Serialization gap 1 ms, jitter up to 20 ms: lots of overtaking.
        link = JitterLink(sim, 8e6, 0.005, lambda p: sink.append(p.uid),
                          jitter_s=0.020, rng=random.Random(3))
        packets = [packet() for _ in range(100)]
        for p in packets:
            link.send(p)
        sim.run()
        sent_order = [p.uid for p in packets]
        assert sorted(sink) == sorted(sent_order)  # nothing lost
        assert sink != sent_order                  # but order changed
        inversions = sum(1 for a, b in zip(sink, sink[1:]) if a > b)
        assert inversions > 5

    def test_delay_bounds(self):
        sim = Simulator()
        arrivals = []
        link = JitterLink(sim, 8e6, 0.010, lambda p: arrivals.append(sim.now),
                          jitter_s=0.005, rng=random.Random(1))
        link.send(packet())
        sim.run()
        # serialization 1 ms + delay in [10, 15] ms.
        assert 0.011 <= arrivals[0] <= 0.016

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            JitterLink(sim, 8e6, 0.01, lambda p: None, jitter_s=-1.0)

    def test_repr(self):
        sim = Simulator()
        link = JitterLink(sim, 8e6, 0.01, lambda p: None, jitter_s=0.002,
                          name="wobble")
        assert "wobble" in repr(link)


class TestReorderingVsSidecarGrace:
    """Section 3.3's reordering hazard, end to end.

    A consumer with grace=1 declares reordered packets lost, removes them
    from its power sums, and is poisoned when they arrive; a larger grace
    rides the jitter out.
    """

    def run_session(self, grace: int, seed: int = 5) -> tuple[int, int]:
        from repro.quack.power_sum import PowerSumQuack
        from repro.sidecar.consumer import QuackConsumer

        sim = Simulator()
        rng = random.Random(seed)
        receiver_quack = PowerSumQuack(threshold=10)
        consumer = QuackConsumer(threshold=10, grace=grace)
        arrived = []

        link = JitterLink(sim, 8e6, 0.005, lambda p: arrived.append(p),
                          jitter_s=0.015, rng=rng)

        failures = [0]
        losses = [0]

        def deliver_and_quack(p):
            receiver_quack.insert(p.identifier)
            if receiver_quack.count % 4 == 0:
                feedback = consumer.on_quack(receiver_quack.copy(), sim.now)
                if not feedback.ok:
                    failures[0] += 1
                losses[0] += len(feedback.lost)

        link.deliver = deliver_and_quack
        for pn in range(200):
            identifier = rng.getrandbits(32)
            p = Packet(src="a", dst="b", size_bytes=1000,
                       identifier=identifier)
            sim.schedule(pn * 0.002, self._send, link, consumer, p)
        sim.run()
        return failures[0], losses[0]

    @staticmethod
    def _send(link, consumer, p):
        consumer.record_send(p.identifier, p.uid, link.sim.now)
        link.send(p)

    def test_grace_one_gets_poisoned(self):
        failures, losses = self.run_session(grace=1)
        # Spurious loss declarations happen, then decoding degrades.
        assert losses > 0
        assert failures > 0

    def test_larger_grace_survives(self):
        failures_g1, _ = self.run_session(grace=1)
        failures_g4, losses_g4 = self.run_session(grace=4)
        assert failures_g4 < failures_g1
        assert failures_g4 == 0  # grace 4 rides out all the jitter here
