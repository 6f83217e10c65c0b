"""Topology builders for the sidecar scenarios.

Every experiment in the paper runs on a *path*: client -- proxy -- server
(Figs. 1b, 3) or client -- proxy -- proxy -- server (Fig. 4, in-network
retransmission).  :func:`build_path` wires an arbitrary chain of nodes
with per-hop link parameters and installs chain routing; the convenience
dataclass :class:`HopSpec` bundles one hop's characteristics, possibly
asymmetric between the two directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.faults import FaultInjector
from repro.netsim.link import Link
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.node import Node


@dataclass
class HopSpec:
    """Link parameters for one hop of a path (both directions).

    ``*_up`` describes the left-to-right direction (toward the last node,
    conventionally the client-to-server or server-ward direction as the
    caller prefers); ``*_down`` the reverse.  Unset downstream values
    mirror the upstream ones.
    """

    bandwidth_bps: float = 100e6
    delay_s: float = 0.01
    queue_packets: int = 256
    loss_up: LossModel | None = None
    loss_down: LossModel | None = None
    bandwidth_down_bps: float | None = None
    delay_down_s: float | None = None
    #: Queue depth at which the hop CE-marks packets (both directions);
    #: None disables ECN marking.
    ecn_threshold: int | None = None
    #: Chaos-harness fault injectors, one per direction; None = no faults.
    faults_up: FaultInjector | None = None
    faults_down: FaultInjector | None = None

    def down_bandwidth(self) -> float:
        return self.bandwidth_down_bps if self.bandwidth_down_bps is not None \
            else self.bandwidth_bps

    def down_delay(self) -> float:
        return self.delay_down_s if self.delay_down_s is not None else self.delay_s


@dataclass
class PathTopology:
    """The wired chain plus handles to its pieces, for tests and stats."""

    sim: Simulator
    nodes: list[Node]
    links_up: list[Link] = field(default_factory=list, init=False)
    links_down: list[Link] = field(default_factory=list, init=False)

    def node_named(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise SimulationError(f"no node named {name!r} on the path")

    def one_way_delay(self) -> float:
        """End-to-end propagation delay, left to right (no queueing)."""
        return sum(link.delay_s for link in self.links_up)

    def base_rtt(self) -> float:
        """Propagation RTT of the full path (no queueing/serialization)."""
        return (sum(link.delay_s for link in self.links_up)
                + sum(link.delay_s for link in self.links_down))


def build_path(sim: Simulator, nodes: Sequence[Node],
               hops: Sequence[HopSpec]) -> PathTopology:
    """Connect ``nodes`` in a chain with the given per-hop links.

    Installs chain routing on every node: destinations to the right go via
    the right neighbor and vice versa.  ``len(hops)`` must equal
    ``len(nodes) - 1``.
    """
    if len(nodes) < 2:
        raise SimulationError(f"a path needs >= 2 nodes, got {len(nodes)}")
    if len(hops) != len(nodes) - 1:
        raise SimulationError(
            f"{len(nodes)} nodes need {len(nodes) - 1} hops, got {len(hops)}"
        )
    names = [node.name for node in nodes]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate node names on path: {names}")

    topology = PathTopology(sim=sim, nodes=list(nodes))
    for i, hop in enumerate(hops):
        left, right = nodes[i], nodes[i + 1]
        up = Link(sim, hop.bandwidth_bps, hop.delay_s, right.receive,
                  queue_packets=hop.queue_packets,
                  loss_model=hop.loss_up if hop.loss_up is not None else NoLoss(),
                  name=f"{left.name}->{right.name}",
                  ecn_threshold=hop.ecn_threshold,
                  faults=hop.faults_up)
        down = Link(sim, hop.down_bandwidth(), hop.down_delay(), left.receive,
                    queue_packets=hop.queue_packets,
                    loss_model=hop.loss_down if hop.loss_down is not None
                    else NoLoss(),
                    name=f"{right.name}->{left.name}",
                    ecn_threshold=hop.ecn_threshold,
                    faults=hop.faults_down)
        left.attach_link(right.name, up)
        right.attach_link(left.name, down)
        topology.links_up.append(up)
        topology.links_down.append(down)

    # Chain routing: everything to my right goes via my right neighbor, etc.
    for i, node in enumerate(nodes):
        for j, destination in enumerate(names):
            if j < i:
                node.add_route(destination, names[i - 1])
            elif j > i:
                node.add_route(destination, names[i + 1])
    return topology


def build_parallel_paths(sim: Simulator, left: Node, right: Node,
                         middles: Sequence[Node],
                         hops: Sequence[tuple[HopSpec, HopSpec]]) \
        -> list[PathTopology]:
    """Connect ``left`` and ``right`` through several one-proxy paths.

    Each entry of ``middles``/``hops`` becomes an independent
    left -- middle_i -- right chain (``hops[i]`` gives the two HopSpecs).
    Default routes between the endpoints go via the *first* path;
    multipath senders steer onto other paths with ``send(packet,
    via=...)`` (see :mod:`repro.transport.multipath`).

    Returns one :class:`PathTopology` per path (sharing the endpoint
    nodes).
    """
    if len(middles) != len(hops):
        raise SimulationError(
            f"{len(middles)} middle nodes but {len(hops)} hop pairs")
    if not middles:
        raise SimulationError("need at least one path")
    topologies = []
    for middle, (first_hop, second_hop) in zip(middles, hops):
        topologies.append(
            build_path(sim, [left, middle, right], [first_hop, second_hop]))
    # build_path overwrote the endpoint default routes on each iteration;
    # normalize them back to the first path.
    left.add_route(right.name, middles[0].name)
    right.add_route(left.name, middles[0].name)
    return topologies
