"""Multipath transfers: striping one stream over several paths.

The paper's Section 5 asks "how would a proxy interact with multipath
transport protocols?"  To make that question concrete and runnable, this
module provides an MPTCP/MPQUIC-flavored multipath layer on top of the
existing endpoints:

* :class:`SharedStream` -- the chunk allocator.  Subflows *pull* chunks
  as their congestion windows open (pull-based scheduling: a fast path
  naturally claims more of the stream), and return unsent chunks on
  window pressure.
* :class:`MultipathTransfer` -- wires one
  :class:`~repro.transport.connection.SenderConnection` per path (each
  with its own congestion controller, packet-number space, identifier
  key, and pinned first hop) against one
  :class:`~repro.transport.connection.ReceiverConnection` per path that
  all share the reassembly state and flow monitor.

Each subflow is an ordinary paranoid connection with its own flow id, so
the sidecar machinery composes per path without modification: a proxy on
path A quACKs subflow A, a proxy on path B quACKs subflow B -- which is
precisely the answer the experiment in
``tests/integration/test_multipath.py`` demonstrates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TransportError
from repro.netsim.core import Simulator
from repro.netsim.node import Host
from repro.netsim.trace import FlowMonitor
from repro.transport.cc.base import CongestionController
from repro.transport.connection import ReceiverConnection, SenderConnection
from repro.transport.frames import DEFAULT_MSS
from repro.transport.ranges import RangeSet


class SharedStream:
    """Sequential chunk allocator shared by the subflows of one transfer."""

    def __init__(self, total_bytes: int, mss: int = DEFAULT_MSS) -> None:
        if total_bytes <= 0:
            raise TransportError(f"total_bytes must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self.mss = mss
        self._next_offset = 0
        self._returned: deque[tuple[int, int]] = deque()
        self.chunks_handed_out = 0

    def next_chunk(self) -> tuple[int, int] | None:
        """Hand out the next chunk (returned chunks take precedence)."""
        if self._returned:
            self.chunks_handed_out += 1
            return self._returned.popleft()
        if self._next_offset >= self.total_bytes:
            return None
        length = min(self.mss, self.total_bytes - self._next_offset)
        offset = self._next_offset
        self._next_offset += length
        self.chunks_handed_out += 1
        return offset, length

    def push_back(self, offset: int, length: int) -> None:
        """A subflow could not send a pulled chunk; re-offer it."""
        self._returned.appendleft((offset, length))
        self.chunks_handed_out -= 1

    def exhausted(self) -> bool:
        return not self._returned and self._next_offset >= self.total_bytes


@dataclass(frozen=True)
class PathSpec:
    """One path of a multipath transfer.

    ``via`` pins the server's first hop; ``via_reverse`` pins the
    client's first hop for the subflow's ACKs (usually the same proxy),
    keeping feedback on-path.
    """

    via: str
    via_reverse: str | None = None
    cc_factory: Callable[[], CongestionController] | None = None
    key: bytes | None = None


@dataclass
class SubflowHandle:
    """The endpoints of one path's subflow."""

    flow_id: str
    sender: SenderConnection
    receiver: ReceiverConnection


class MultipathTransfer:
    """One byte stream striped across several paths."""

    def __init__(self, sim: Simulator, server: Host, client: Host,
                 total_bytes: int, paths: list[PathSpec],
                 mss: int = DEFAULT_MSS,
                 on_complete: Callable[[float], None] | None = None) -> None:
        if not paths:
            raise TransportError("a multipath transfer needs at least one path")
        self.sim = sim
        self.total_bytes = total_bytes
        self.stream = SharedStream(total_bytes, mss)
        self.received = RangeSet()
        self.monitor = FlowMonitor("multipath")
        self.on_complete = on_complete
        self.completed_at: float | None = None
        self.subflows: list[SubflowHandle] = []
        for index, path in enumerate(paths):
            flow_id = f"mp-{index}"
            key = path.key if path.key is not None \
                else f"multipath-key-{index}".encode()
            receiver = ReceiverConnection(
                sim, client, server.name, total_bytes, key=key,
                flow_id=flow_id, monitor=self.monitor,
                received_offsets=self.received,
                on_complete=self._subflow_done,
                via=path.via_reverse)
            sender = SenderConnection(
                sim, server, client.name, total_bytes, key=key,
                flow_id=flow_id, mss=mss,
                cc=path.cc_factory() if path.cc_factory is not None else None,
                chunk_source=self.stream, via=path.via)
            self.subflows.append(SubflowHandle(flow_id, sender, receiver))

    def start(self) -> None:
        for subflow in self.subflows:
            subflow.sender.start()

    def _subflow_done(self, now: float) -> None:
        # Every per-path receiver checks the *shared* range set, so the
        # first completion callback is the transfer's completion.
        if self.completed_at is None:
            self.completed_at = now
            if self.on_complete is not None:
                self.on_complete(now)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def goodput_bps(self) -> float:
        return self.monitor.goodput_bps(self.completed_at)

    def bytes_by_subflow(self) -> dict[str, int]:
        """How much of the stream each path carried (sent, minus retx)."""
        return {sub.flow_id: len(sub.sender.assigned_offsets)
                for sub in self.subflows}
