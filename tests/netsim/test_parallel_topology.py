"""Tests for the parallel-paths topology builder and per-flow pins."""

import pytest

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_parallel_paths


def build(num_paths=2):
    sim = Simulator()
    left, right = Host(sim, "left"), Host(sim, "right")
    middles = [Router(sim, f"m{i}") for i in range(num_paths)]
    hops = [(HopSpec(delay_s=0.01 * (i + 1)),
             HopSpec(delay_s=0.01 * (i + 1))) for i in range(num_paths)]
    topos = build_parallel_paths(sim, left, right, middles, hops)
    return sim, left, right, middles, topos


class TestBuildParallelPaths:
    def test_returns_one_topology_per_path(self):
        sim, left, right, middles, topos = build(3)
        assert len(topos) == 3
        for topo, middle in zip(topos, middles):
            assert middle in topo.nodes

    def test_default_route_is_first_path(self):
        sim, left, right, middles, topos = build()
        assert left.routes["right"] == "m0"
        assert right.routes["left"] == "m0"

    def test_default_send_uses_first_path(self):
        sim, left, right, middles, topos = build()
        got = []
        right.add_handler(PacketKind.DATA, lambda p: got.append(sim.now))
        left.send(Packet(src="left", dst="right", size_bytes=100))
        sim.run()
        # Path 0 delays: 10 ms + 10 ms (plus tiny serialization).
        assert got and got[0] < 0.03

    def test_via_steers_to_second_path(self):
        sim, left, right, middles, topos = build()
        got = []
        right.add_handler(PacketKind.DATA, lambda p: got.append(sim.now))
        left.pin("f1", "m1")
        left.send(Packet(src="left", dst="right", size_bytes=100,
                         flow_id="f1"))
        # Other flows still follow the routing table.
        left.send(Packet(src="left", dst="right", size_bytes=100))
        sim.run()
        # Path 0 delays: 10 ms + 10 ms; path 1's: 20 ms + 20 ms.
        assert len(got) == 2 and got[0] < 0.03 and got[1] > 0.04

    def test_via_unknown_neighbor_rejected(self):
        sim, left, right, middles, topos = build()
        left.pin("flow0", "nowhere")
        with pytest.raises(SimulationError, match="no link"):
            left.send(Packet(src="left", dst="right", size_bytes=10))

    def test_reverse_direction_steering(self):
        sim, left, right, middles, topos = build()
        got = []
        left.add_handler(PacketKind.ACK, lambda p: got.append(sim.now))
        right.pin("flow0", "m1")
        right.send(Packet(src="right", dst="left", size_bytes=50,
                          kind=PacketKind.ACK))
        sim.run()
        assert got and got[0] > 0.04

    def test_validation(self):
        sim = Simulator()
        left, right = Host(sim, "l"), Host(sim, "r")
        with pytest.raises(SimulationError):
            build_parallel_paths(sim, left, right, [], [])
        with pytest.raises(SimulationError):
            build_parallel_paths(sim, left, right, [Router(sim, "m")], [])
