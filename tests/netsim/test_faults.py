"""Unit tests for the fault injectors (repro.netsim.faults)."""

import dataclasses
import random

import pytest

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.faults import (
    SIDECAR_KINDS,
    Blackout,
    BurstLoss,
    Corruption,
    DelaySpike,
    Duplication,
    flip_frame_bits,
)
from repro.netsim.link import Link
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.netsim.node import Host


def packet(kind=PacketKind.QUACK, payload=None):
    return Packet(src="a", dst="b", size_bytes=100, kind=kind,
                  payload=payload)


@dataclasses.dataclass(frozen=True)
class FramedPayload:
    frame: bytes


def flip_frame(packet, rng):
    """A corrupter for payloads with a ``frame: bytes`` field."""
    frame = getattr(packet.payload, "frame", None)
    if not isinstance(frame, bytes):
        return None
    return packet.with_payload(dataclasses.replace(
        packet.payload, frame=flip_frame_bits(frame, rng)))


class TestBlackout:
    def test_drops_only_inside_windows(self):
        outage = Blackout([(1.0, 2.0)])
        assert not outage.on_transmit(packet(), 0.5).drop
        assert outage.on_transmit(packet(), 1.0).drop
        assert outage.on_transmit(packet(), 1.999).drop
        assert not outage.on_transmit(packet(), 2.0).drop  # half-open
        assert outage.stats.dropped == 2

    def test_kind_filter(self):
        outage = Blackout([(0.0, 10.0)], kinds=SIDECAR_KINDS)
        assert outage.on_transmit(packet(PacketKind.DATA), 1.0) \
            .drop is False
        assert outage.on_transmit(packet(PacketKind.QUACK), 1.0).drop
        assert outage.on_transmit(packet(PacketKind.CONTROL), 1.0).drop
        assert outage.stats.considered == 2  # DATA never counted

    def test_rejects_bad_windows(self):
        with pytest.raises(SimulationError):
            Blackout([(2.0, 1.0)])


class TestCorruption:
    def test_flips_frame_bytes(self):
        noise = Corruption(rate=1.0, corrupter=flip_frame, seed=7)
        original = packet(payload=FramedPayload(frame=b"\x00" * 20))
        decision = noise.on_transmit(original, 0.0)
        assert decision.replacement is not None
        assert decision.replacement.payload.frame != original.payload.frame
        assert len(decision.replacement.payload.frame) == 20
        assert noise.stats.corrupted == 1

    def test_leaves_frameless_payloads_alone(self):
        noise = Corruption(rate=1.0, corrupter=flip_frame, seed=7)
        decision = noise.on_transmit(packet(payload="not bytes"), 0.0)
        assert decision.replacement is None

    def test_rate_zero_never_corrupts(self):
        noise = Corruption(rate=0.0, corrupter=flip_frame, seed=7)
        for _ in range(50):
            decision = noise.on_transmit(
                packet(payload=FramedPayload(frame=b"x" * 8)), 0.0)
            assert decision.replacement is None

    def test_seeded_replay_is_identical(self):
        outcomes = []
        for _ in range(2):
            noise = Corruption(rate=0.5, corrupter=flip_frame, seed=42)
            outcomes.append([
                noise.on_transmit(
                    packet(payload=FramedPayload(frame=bytes(range(16)))),
                    0.0).replacement is not None
                for _ in range(40)])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_flip_frame_bits_never_a_noop(self):
        rng = random.Random(3)
        frame = bytes(64)
        for _ in range(100):
            assert flip_frame_bits(frame, rng) != frame


class TestDuplicationBurstDelay:
    def test_duplication_copies(self):
        dupes = Duplication(rate=1.0, seed=1)
        decision = dupes.on_transmit(packet(), 0.0)
        assert decision.copies == 2
        assert dupes.stats.duplicated == 1

    def test_burst_loss_windows(self):
        bursts = BurstLoss([(1.0, 2.0)], rate=1.0, seed=1)
        assert not bursts.on_transmit(packet(), 0.5).drop
        assert bursts.on_transmit(packet(), 1.5).drop

    def test_delay_spike(self):
        spike = DelaySpike([(0.0, 1.0)], extra_delay_s=0.25)
        assert spike.on_transmit(packet(), 0.5).extra_delay == 0.25
        assert spike.on_transmit(packet(), 1.5).extra_delay == 0.0


class TestLinkIntegration:
    def build(self, faults):
        sim = Simulator()
        delivered = []
        link = Link(sim, bandwidth_bps=8e6, delay_s=0.001,
                    deliver=delivered.append, faults=faults)
        return sim, link, delivered

    def test_fault_drop_counted_separately(self):
        sim, link, delivered = self.build(Blackout([(0.0, 10.0)]))
        link.send(packet())
        sim.run(until=1.0)
        assert delivered == []
        assert link.stats.dropped_fault == 1
        assert link.stats.dropped_loss == 0

    def test_duplication_delivers_twice(self):
        sim, link, delivered = self.build(Duplication(rate=1.0, seed=1))
        link.send(packet())
        sim.run(until=1.0)
        assert len(delivered) == 2
        assert link.stats.duplicated_fault == 1
        assert link.stats.delivered == 2

    def test_delay_spike_postpones_delivery(self):
        sim, link, delivered = self.build(
            DelaySpike([(0.0, 10.0)], extra_delay_s=0.5))
        link.send(packet())
        sim.run(until=0.4)
        assert delivered == []
        sim.run(until=1.0)
        assert len(delivered) == 1

    def test_corruption_swaps_payload(self):
        sim, link, delivered = self.build(Corruption(rate=1.0, corrupter=flip_frame,
                                                   seed=3))
        link.send(packet(payload=FramedPayload(frame=b"\xaa" * 12)))
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert delivered[0].payload.frame != b"\xaa" * 12
        assert link.stats.corrupted_fault == 1

    def test_no_faults_is_the_default(self):
        sim, link, delivered = self.build(None)
        link.send(packet())
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert link.stats.dropped_fault == 0

    def test_hopspec_threads_faults_per_direction(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        outage = Blackout([(0.0, 10.0)])
        topology = build_path(sim, [a, b],
                              [HopSpec(faults_up=outage, faults_down=None)])
        assert topology.links_up[0].faults is outage
        assert topology.links_down[0].faults is None
