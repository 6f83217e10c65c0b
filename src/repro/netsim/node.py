"""Nodes: hosts at the edge, routers (and proxies) on the path.

The paper's deployment model (Section 2): "proxies on a connection's path
should act as regular routers for packets between the end hosts -- they
can withhold or delay packets, but they cannot modify the packets or make
decisions based on their contents."  The class split mirrors that:

* :class:`Host` -- a connection endpoint; dispatches received packets to
  protocol handlers by :class:`~repro.netsim.packet.PacketKind`;
* :class:`Router` -- forwards by destination.  Two extension points let a
  sidecar ride along without violating the model:

  - *taps* observe every forwarded packet (reading only observable fields
    -- sizes, identifiers); this is how a sidecar accumulates its quACK;
  - a *forwarding policy* may take custody of a packet and re-emit it
    later (withhold/delay/duplicate), which is how the congestion-control
    division proxy paces, and how the in-network retransmitter buffers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet, PacketKind


class Node(ABC):
    """A network element with named outgoing links and a routing table.

    Nodes are allocated in bulk by large sweeps (one per simulated
    element), so the hierarchy is ``__slots__``-based.
    """

    __slots__ = ("sim", "name", "links", "routes", "pins", "_next_link")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: dict[str, Link] = {}
        self.routes: dict[str, str] = {}
        #: Flow id -> next hop, ahead of ``routes`` (see :meth:`pin`).
        self.pins: dict[str, str] = {}
        #: Destination -> outgoing link, filled on first use and dropped
        #: whenever a link or route changes.
        self._next_link: dict[str, Link] = {}

    def attach_link(self, neighbor: str, link: Link) -> None:
        self.links[neighbor] = link
        self._next_link.clear()

    def add_route(self, destination: str, next_hop: str) -> None:
        self.routes[destination] = next_hop
        self._next_link.clear()

    def pin(self, flow_id: str, next_hop: str) -> None:
        """Let :meth:`send` put ``flow_id``'s packets on the link to
        ``next_hop``, whatever the routing table says."""
        self.pins[flow_id] = next_hop

    def send(self, packet: Packet) -> bool:
        """Route a locally-originated (or emitted) packet one hop on."""
        if self.pins:
            next_hop = self.pins.get(packet.flow_id)
            if next_hop is not None:
                return self._link(packet.dst, next_hop).send(packet)
        try:
            link = self._next_link[packet.dst]
        except KeyError:
            link = self._next_link[packet.dst] = self._link(packet.dst, None)
        return link.send(packet)

    def _link(self, destination: str, via: str | None) -> Link:
        """The link toward ``destination`` (first hop ``via`` if given)."""
        if destination == self.name:
            raise SimulationError(f"{self.name} tried to send a packet to itself")
        next_hop = via if via is not None else self.routes.get(destination)
        if next_hop is None:
            raise SimulationError(
                f"{self.name} has no route to {destination!r} "
                f"(routes: {sorted(self.routes)})"
            )
        link = self.links.get(next_hop)
        if link is None:
            raise SimulationError(
                f"{self.name} routes {destination!r} via {next_hop!r} but "
                f"has no link to it"
            )
        return link

    @abstractmethod
    def receive(self, packet: Packet) -> None:
        """Called by an incoming link when a packet arrives here."""


class Host(Node):
    """An end host; delivers arriving packets to registered handlers.

    Handlers are registered per :class:`PacketKind` -- the transport
    endpoint takes DATA/ACK, a sidecar library on the host takes
    QUACK/CONTROL ("the only changes that need to be made to the end
    hosts are installing a library", Section 2.1).
    """

    __slots__ = ("_handlers", "received_count")

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        #: Handlers by ``PacketKind.index``: an int key hashes the same
        #: in every process without the Python-level ``Enum.__hash__``.
        self._handlers: dict[int, list[Callable[[Packet], None]]] = {}
        self.received_count = 0

    def add_handler(self, kind: PacketKind,
                    handler: Callable[[Packet], None]) -> None:
        self._handlers.setdefault(kind.index, []).append(handler)

    def receive(self, packet: Packet) -> None:
        if packet.dst != self.name:
            raise SimulationError(
                f"host {self.name} received a packet addressed to {packet.dst}"
            )
        self.received_count += 1
        try:
            handlers = self._handlers[packet.kind.index]
        except KeyError:
            raise SimulationError(
                f"host {self.name} has no handler for {packet.kind.value!r} packets"
            ) from None
        for handler in handlers:
            handler(packet)


class ForwardingPolicy(Protocol):
    """Optional custody hook for routers (pacing, buffering, retransmission).

    ``on_packet`` returns True to let the router forward immediately, or
    False to take custody; the policy then calls ``router.emit(packet)``
    (possibly later, possibly more than once for retransmissions).
    """

    def on_packet(self, packet: Packet) -> bool: ...


class Router(Node):
    """Forwards packets toward their destination; hosts sidecar taps."""

    __slots__ = ("taps", "policy", "forwarded_count")

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.taps: list[Callable[[Packet], None]] = []
        self.policy: ForwardingPolicy | None = None
        self.forwarded_count = 0

    def add_tap(self, tap: Callable[[Packet], None]) -> None:
        """Observe every packet this router receives (read-only)."""
        self.taps.append(tap)

    def receive(self, packet: Packet) -> None:
        for tap in self.taps:
            tap(packet)
        dst = packet.dst
        if dst == self.name:
            return  # sidecar-protocol traffic terminates at the proxy itself
        if self.policy is not None and not self.policy.on_packet(packet):
            return  # the policy took custody and will emit() later
        # emit(), inlined: a forwarded packet costs this frame and the
        # link's.
        self.forwarded_count += 1
        try:
            link = self._next_link[dst]
        except KeyError:
            link = self._next_link[dst] = self._link(dst, None)
        link.send(packet)

    def emit(self, packet: Packet) -> bool:
        """Forward a packet toward its destination now."""
        self.forwarded_count += 1
        return self.send(packet)
