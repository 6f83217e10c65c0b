"""Packets as seen on the wire of the simulated network.

A packet models an E2E-encrypted datagram.  The split between what is
*observable* by on-path elements and what is *protected* is the crux of
the paper: middleboxes "cannot modify the packets or make decisions based
on their contents" (Section 2).  Concretely:

* observable by everyone: sizes, arrival times, source/destination, and
  the pseudorandom ``identifier`` (a function of the encrypted bytes --
  see :mod:`repro.ids`);
* ``protected`` is the decrypted view (packet numbers, ACK frames, ...)
  that only the two connection endpoints may read.  On-path code accessing
  it would be the simulation equivalent of breaking the encryption, so
  :meth:`Packet.protected_payload` enforces a capability check: callers
  must present the connection key.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.errors import SimulationError

_packet_ids = itertools.count()


def reset_packet_uids() -> None:
    """Restart the process-wide packet uid sequence from zero.

    Packet uids are allocated from a module-level counter, which is the
    one piece of state an experiment inherits from whatever ran before
    it in the same process.  The experiment entry points
    (``run_cc_division``, ``run_ack_reduction``, ``run_retransmission``,
    the chaos harness) call this on entry so that a run's uid sequence
    -- and therefore its netsim trace -- is a pure function of the run's
    own parameters, which is what makes farming runs out to worker
    processes (:mod:`repro.sweep`) reproducible regardless of how many
    tasks a worker has already executed.
    """
    global _packet_ids
    _packet_ids = itertools.count()


class PacketKind(Enum):
    """Coarse traffic class, used for tracing and for sidecar filters.

    A real sidecar classifies packets by address/port and direction; the
    enum stands in for that. ``DATA``/``ACK`` belong to the protected base
    protocol (a sidecar cannot see *which*, but our traces can);
    ``QUACK`` and ``CONTROL`` belong to the sidecar protocol itself, which
    is not encrypted end-to-end.
    """

    DATA = "data"
    ACK = "ack"
    QUACK = "quack"
    CONTROL = "control"


@dataclass(slots=True)
class Packet:
    """One datagram in flight (``slots=True``: the highest-volume
    allocation in any run).

    Attributes:
        src, dst: node names (routing is by destination name).
        size_bytes: wire size, used for serialization delay and queueing.
        kind: coarse class for tracing/filtering (see :class:`PacketKind`).
        identifier: the pseudorandom b-bit value a sidecar derives from
            the encrypted bytes; None for packets with no payload to hash
            (e.g. pure sidecar control traffic).
        flow_id: identifies the transport connection (observable in the
            same sense a UDP 4-tuple is observable).
        uid: unique per simulated packet; never reused, even across
            retransmissions carrying the same protected data.

    ``uid`` and ``trace_ctx`` are state, not constructor arguments; a
    datagram rebuilt in flight keeps them through :meth:`with_payload`
    (``dataclasses.replace`` would allocate a new identity).
    """

    src: str
    dst: str
    size_bytes: int
    kind: PacketKind = PacketKind.DATA
    identifier: int | None = None
    flow_id: str = "flow0"
    uid: int = field(default_factory=lambda: next(_packet_ids), init=False)
    created_at: float = 0.0
    #: ECN Congestion Experienced mark.  Lives in the IP header, so it is
    #: observable and *settable* by on-path elements (an AQM marks it),
    #: and echoed end-to-end inside the encrypted ACKs -- the one
    #: congestion signal a quACK cannot carry (paper, Section 2.2).
    ecn_ce: bool = False
    #: Payload of the *sidecar* protocol (QUACK/CONTROL packets), which is
    #: not E2E-encrypted: it is spoken hop-wise between consenting sidecars
    #: (paper, Section 2).  Always None on base-protocol packets.
    payload: Any = None
    #: Trace-context id stamped by the sender when tracing is enabled
    #: (None otherwise).  Deliberately *outside* the protected payload:
    #: it models an unauthenticated debug marker (like a spin bit or a
    #: tunnel header tag) that on-path elements may read, so lifecycle
    #: spans can be assembled without breaking the paper's threat model.
    #: Protocol behavior must never depend on it (DESIGN.md §8).
    trace_ctx: int | None = field(default=None, init=False)
    _protected: Any = field(default=None, repr=False)
    _key: bytes | None = field(default=None, repr=False)

    @classmethod
    def sealed(cls, src: str, dst: str, size_bytes: int, *, key: bytes,
               payload: Any, kind: PacketKind = PacketKind.DATA,
               identifier: int | None = None, flow_id: str = "flow0",
               created_at: float = 0.0) -> "Packet":
        """Build a packet whose payload only holders of ``key`` can read."""
        return cls(src=src, dst=dst, size_bytes=size_bytes, kind=kind,
                   identifier=identifier, flow_id=flow_id,
                   created_at=created_at, _protected=payload, _key=key)

    def with_payload(self, payload: Any,
                     size_bytes: int | None = None) -> "Packet":
        """This datagram as corruption or an on-path rewrite leaves it:
        other sidecar bytes (and size), same identity."""
        twin = copy.copy(self)
        twin.payload = payload
        if size_bytes is not None:
            twin.size_bytes = size_bytes
        return twin

    def protected_payload(self, key: bytes) -> Any:
        """Decrypt: return the protected payload, or raise without the key."""
        if self._key is None:
            raise SimulationError(f"packet {self.uid} carries no protected payload")
        if key != self._key:
            raise SimulationError(
                f"wrong key for packet {self.uid}: an on-path element tried "
                f"to read an E2E-encrypted payload"
            )
        return self._protected

    @property
    def has_protected_payload(self) -> bool:
        return self._key is not None

    def __repr__(self) -> str:
        ident = f"{self.identifier:#010x}" if self.identifier is not None else "-"
        return (f"Packet(uid={self.uid}, {self.src}->{self.dst}, "
                f"{self.kind.value}, {self.size_bytes}B, id={ident})")
