"""Protected (E2E-encrypted) transport frames.

These objects travel as the sealed payload of a
:class:`~repro.netsim.packet.Packet`; only the two endpoints holding the
connection key can read them (see
:meth:`repro.netsim.packet.Packet.protected_payload`).  Middleboxes see
sizes and pseudorandom identifiers -- nothing here.

The frame set is the minimal QUIC-like vocabulary the sidecar scenarios
need: stream data, ACKs with ranges, and the ACK-frequency update from
the QUIC extension the paper cites for ACK reduction (Section 2.2,
draft-ietf-quic-ack-frequency).

A frame is built once per datagram, so the classes are
``slots=True`` and not ``frozen=True``: a frozen ``__init__`` stores
every field through ``object.__setattr__``, about twice the cost of a
slotted store.  Frames are still never mutated after they are built;
``tests/test_datagram_immutability.py`` checks that over whole assisted
runs, and ``tests/test_datagram_objects.py`` keeps these classes (and
the other per-datagram objects) slotted and unfrozen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes of transport + IP/UDP header overhead per packet in the simulation.
HEADER_BYTES = 40

#: Default maximum payload bytes per packet; header + payload = a typical
#: 1500-byte MTU (the paper's Section 4.3 sizing assumes 1500 B packets).
DEFAULT_MSS = 1460


@dataclass(slots=True)
class DataFrame:
    """A chunk of the (single) stream: ``[offset, offset+length)``.

    ``packet_number`` identifies the packet for ACK purposes; a
    retransmission of the same bytes uses a *new* packet number, as in
    QUIC.
    """

    packet_number: int
    offset: int
    length: int
    fin: bool = False


@dataclass(slots=True)
class AckFrame:
    """Acknowledgment with ranges, as observed by the receiver.

    ``ranges`` are inclusive packet-number ranges, highest first is not
    required (they are normalized by consumers).  ``delay_s`` is the
    receiver-side ACK delay, subtracted from RTT samples.
    """

    largest_acked: int
    ranges: tuple[tuple[int, int], ...]
    delay_s: float = 0.0
    ecn_ce_count: int = 0
    packet_number: int = 0


@dataclass(slots=True)
class AckFrequencyFrame:
    """Sender's request to slow the peer's ACK cadence (QUIC extension).

    The server uses this in the ACK-reduction protocol: "The client can
    also transmit fewer ACKs using the proposed ACK frequency extension
    in QUIC, reducing network congestion" (Section 2.2).
    """

    ack_every: int
    max_delay_s: float
    packet_number: int = 0
