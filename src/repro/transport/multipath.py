"""Multipath transfers: striping one stream over several paths.

The paper's Section 5 asks "how would a proxy interact with multipath
transport protocols?"  To make that question concrete and runnable, this
module provides an MPTCP/MPQUIC-flavored multipath layer beside the
single-path endpoints of :mod:`repro.transport.connection`:

* :class:`SharedStream` -- the chunk allocator.  Subflows *pull* chunks
  as their congestion windows open (pull-based scheduling: a fast path
  naturally claims more of the stream), and return unsent chunks on
  window pressure.
* :class:`SubflowSender` / :class:`SubflowReceiver` -- endpoints that
  pull from the shared stream and reassemble into one shared range set.
* :class:`MultipathTransfer` -- one subflow per path (own congestion
  controller, packet numbers and identifier key), pinned to its path at
  both hosts (:meth:`~repro.netsim.node.Node.pin`).

Each subflow is an ordinary paranoid connection with its own flow id, so
the sidecar machinery composes per path without modification: a proxy on
path A quACKs subflow A, a proxy on path B quACKs subflow B -- which is
precisely the answer the experiment in
``tests/integration/test_multipath.py`` demonstrates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import TransportError
from repro.netsim.core import Simulator
from repro.netsim.node import Host
from repro.transport.connection import ReceiverConnection, SenderConnection
from repro.transport.frames import DEFAULT_MSS
from repro.transport.ranges import RangeSet


class SharedStream:
    """Sequential chunk allocator shared by the subflows of one transfer."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise TransportError(f"total_bytes must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self._next_offset = 0
        self._returned: deque[tuple[int, int]] = deque()

    def next_chunk(self) -> tuple[int, int] | None:
        """Hand out the next chunk (returned chunks take precedence)."""
        if self._returned:
            return self._returned.popleft()
        if self._next_offset >= self.total_bytes:
            return None
        length = min(DEFAULT_MSS, self.total_bytes - self._next_offset)
        offset = self._next_offset
        self._next_offset += length
        return offset, length

    def push_back(self, offset: int, length: int) -> None:
        """A subflow could not send a pulled chunk; re-offer it."""
        self._returned.appendleft((offset, length))

    def exhausted(self) -> bool:
        return not self._returned and self._next_offset >= self.total_bytes


class SubflowSender(SenderConnection):
    """A sender whose fresh data is pulled from a :class:`SharedStream`;
    ``assigned_offsets`` is every byte it has put on the wire."""

    def __init__(self, sim: Simulator, host: Host, peer: str,
                 total_bytes: int, stream: SharedStream, **kwargs) -> None:
        super().__init__(sim, host, peer, total_bytes, **kwargs)
        self.stream = stream
        self.assigned_offsets = RangeSet()

    def _next_chunk(self):
        if self._retx_queue:
            return super()._next_chunk()
        chunk = self.stream.next_chunk()
        return None if chunk is None else (*chunk, None)

    def _push_back_chunk(self, offset, length, retx) -> None:
        if retx is None:
            self.stream.push_back(offset, length)
        else:
            super()._push_back_chunk(offset, length, retx)

    def _transmit(self, offset, length, retx=None):
        if length > 0:
            self.assigned_offsets.add_range(offset, offset + length - 1)
        return super()._transmit(offset, length, retx)

    def _check_completion(self) -> None:
        # Done when the shared stream is exhausted and everything this
        # subflow ever transmitted is acked.
        if (self.completed_at is None and self.stream.exhausted()
                and not self._retx_queue and self.bytes_in_flight == 0
                and len(self.acked_offsets) == len(self.assigned_offsets)):
            self._finish()


class SubflowReceiver(ReceiverConnection):
    """Reassembles into the shared ``received``; calls ``on_complete``."""

    def __init__(self, sim: Simulator, host: Host, peer: str,
                 total_bytes: int, received: RangeSet,
                 on_complete: Callable[[float], None], **kwargs) -> None:
        super().__init__(sim, host, peer, total_bytes, **kwargs)
        self.received_offsets = received
        self.on_complete = on_complete

    def _complete(self) -> None:
        super()._complete()
        self.on_complete(self.sim.now)


@dataclass(frozen=True)
class PathSpec:
    """One path of a multipath transfer.

    ``via`` is the path's proxy: the server's first hop for the data and
    the client's first hop for the subflow's ACKs, keeping feedback
    on-path.  Each subflow runs the default congestion controller under
    its own identifier key.
    """

    via: str


@dataclass
class SubflowHandle:
    """The endpoints of one path's subflow."""

    flow_id: str
    sender: SubflowSender
    receiver: SubflowReceiver


class MultipathTransfer:
    """One byte stream striped across several paths."""

    def __init__(self, sim: Simulator, server: Host, client: Host,
                 total_bytes: int, paths: list[PathSpec]) -> None:
        if not paths:
            raise TransportError("a multipath transfer needs at least one path")
        self.sim = sim
        self.total_bytes = total_bytes
        self.stream = SharedStream(total_bytes)
        self.received = RangeSet()
        self.completed_at: float | None = None
        self.subflows: list[SubflowHandle] = []
        for index, path in enumerate(paths):
            flow_id = f"mp-{index}"
            key = f"multipath-key-{index}".encode()
            server.pin(flow_id, path.via)
            client.pin(flow_id, path.via)
            receiver = SubflowReceiver(
                sim, client, server.name, total_bytes, self.received,
                self._subflow_done, key=key, flow_id=flow_id)
            sender = SubflowSender(
                sim, server, client.name, total_bytes, self.stream, key=key,
                flow_id=flow_id)
            self.subflows.append(SubflowHandle(flow_id, sender, receiver))

    def start(self) -> None:
        for subflow in self.subflows:
            subflow.sender.start()

    def _subflow_done(self, now: float) -> None:
        # Every per-path receiver checks the *shared* range set, so the
        # first completion callback is the transfer's completion.
        if self.completed_at is None:
            self.completed_at = now

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def goodput_bps(self) -> float:
        """The stream's bytes received over the latest delivery on any
        subflow, in bit/s (0.0 before anything is delivered)."""
        latest = max(sub.receiver.last_delivery_at or 0.0
                     for sub in self.subflows)
        return 8 * len(self.received) / latest if latest else 0.0

    def bytes_by_subflow(self) -> dict[str, int]:
        """How much of the stream each path carried (sent, minus retx)."""
        return {sub.flow_id: len(sub.sender.assigned_offsets)
                for sub in self.subflows}
