"""Sidecar-protocol wire messages and packet helpers.

Sidecar messages travel as ordinary datagrams between consenting sidecars
(host libraries and proxies).  They are not E2E-encrypted -- the sidecar
channel is its own protocol, deliberately decoupled from the base
transport (paper, Section 2).  :class:`QuackMessage` carries one
serialized quACK snapshot; the control messages (:data:`ControlMessage`)
are the Section 2 control plane -- "They can also configure sidecar
protocol parameters with each other such as the communication frequency
and properties of the quACK" -- and the handshakes around it.

Every sidecar frame is checksummed.  Sidecar datagrams are plain UDP on
real networks: they get bit-flipped, truncated, and replayed, and the
sidecar must classify that corruption as a
:class:`~repro.errors.WireFormatError` at the parse boundary rather than
let mangled power sums masquerade as decode divergence.  QuACK snapshots
ride the CRC-carrying quACK wire format; control messages share its
envelope (version rules, CRC-32 trailer, packed flow id) around one
layout row per message type (:func:`encode_control` /
:func:`parse_control`).  A datagram whose bytes no longer parse is
represented in the simulator as a :class:`CorruptFrame`, which every
receiving agent counts and drops.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple

from repro import obs
from repro.errors import WireFormatError
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack

#: IP/UDP overhead of a sidecar datagram.
SIDECAR_HEADER_BYTES = 28

#: Magic prefix of serialized control messages.
CONTROL_MAGIC = b"sC"
CONTROL_VERSION = 1
#: Every control-frame version this build can encode and decode.  v2
#: inserts a negotiated-feature byte between the version and the kind.
CONTROL_VERSIONS = (1, 2)
CONTROL_FORMAT = "control frame"
#: Sentinel for "field not present" in serialized ConfigMessages.
_ABSENT = 0xFFFFFFFF
#: Size of the transcript hash a HELLO-ACK echoes (SHA-256).
TRANSCRIPT_BYTES = 32


@dataclass(slots=True)
class QuackMessage:
    """One quACK snapshot, serialized with :mod:`repro.quack.wire`, of
    the cumulative state of ``epoch`` (:mod:`repro.sidecar.reset`:
    snapshots of another epoch describe abandoned state)."""

    frame: bytes
    flow_id: str
    epoch: int = 0

    def quack(self, implicit_count: int | None = None) -> PowerSumQuack:
        decoded = wire.decode(self.frame, implicit_count=implicit_count)
        if not isinstance(decoded, PowerSumQuack):
            raise TypeError("sidecar QuackMessage must carry a power-sum quACK")
        return decoded


@dataclass(frozen=True)
class ResetMessage:
    """Consumer -> emitter: abandon the cumulative state; begin ``epoch``
    with a fresh accumulator (the Section 3.3 reset,
    :mod:`repro.sidecar.reset`).  Resends are idempotent."""

    flow_id: str
    epoch: int


@dataclass(frozen=True)
class ConfigMessage:
    """Consumer -> emitter: retune the emitter (frequency and quACK
    parameters).  Applied in one place:
    :meth:`~repro.sidecar.agents.EmitterEndpoint.on_control`."""

    flow_id: str
    every_n: int | None = None
    interval_s: float | None = None
    threshold: int | None = None


@dataclass(frozen=True)
class ResumeMessage:
    """Emitter -> consumer: a restarted middlebox restored ``epoch`` at
    cumulative ``count`` from a checkpoint instead of coming back empty;
    the consumer answers with
    :func:`~repro.sidecar.snapshot.resume_verdict`."""

    flow_id: str
    epoch: int
    count: int


@dataclass(frozen=True)
class HelloMessage:
    """Capability offer from the quACK consumer: the version range it
    speaks, the quACK parameters it wants, its preferred emission
    interval and its feature bits (:mod:`repro.sidecar.negotiate`)."""

    flow_id: str
    min_version: int = 1
    max_version: int = 1
    threshold: int = 20
    bits: int = 32
    interval_us: int = 0
    features: int = 0


@dataclass(frozen=True)
class HelloAckMessage:
    """Capability answer: the responder's choice plus ``transcript``,
    the SHA-256 over the offer frame *as the responder received it* --
    the downgrade protection of :mod:`repro.sidecar.negotiate`."""

    flow_id: str
    version: int
    threshold: int
    bits: int
    interval_us: int
    features: int
    transcript: bytes = b"\x00" * TRANSCRIPT_BYTES


@dataclass(frozen=True)
class VersionSwitchMessage:
    """Consumer -> emitter: stamp ``version`` on every subsequent frame.
    Carries the epoch it belongs to, so a reordered switch from before a
    reset cannot flip a fresh session (:mod:`repro.sidecar.negotiate`)."""

    flow_id: str
    version: int
    epoch: int


@dataclass(frozen=True)
class CorruptFrame:
    """A sidecar datagram whose bytes no longer parse.

    The fault-injection layer produces these when corruption mangles a
    frame beyond its checksum; receivers count them (the per-agent
    ``corrupt_frames`` fault counter) and drop them, exactly as a real
    implementation drops datagrams that fail validation.
    """

    frame: bytes
    flow_id: str = ""


# -- control-message wire format ----------------------------------------------

ControlMessage = (ResetMessage | ConfigMessage | ResumeMessage
                  | HelloMessage | HelloAckMessage | VersionSwitchMessage)


class _Layout(NamedTuple):
    cls: type
    kind: int               # the type byte
    name: str               # the message's name in errors
    body: struct.Struct     # the fields after the flow id, in field order
    read: Callable          # message -> (flow_id, *body fields)


def _layout(cls: type, kind: int, name: str, body: str) -> _Layout:
    return _Layout(cls, kind, name, struct.Struct(body),
                   attrgetter(*(field.name for field in fields(cls))))


#: One row per control message.  The frame is the sidecar envelope of
#: :mod:`repro.quack.wire` around the row: magic ``sC``, version (1 or
#: 2), the negotiated-feature byte (v2 only), the type byte, the packed
#: flow id, the body, and the CRC-32 trailer.  ConfigMessage carries its
#: interval in whole microseconds and 0xFFFFFFFF for an absent field.
_LAYOUTS = (
    _layout(ResetMessage, 1, "reset", ">I"),
    _layout(ConfigMessage, 2, "config", ">III"),
    _layout(ResumeMessage, 3, "resume", ">II"),
    _layout(HelloMessage, 4, "hello", ">BBHBII"),
    _layout(HelloAckMessage, 5, "hello-ack", f">BHBII{TRANSCRIPT_BYTES}s"),
    _layout(VersionSwitchMessage, 6, "version-switch", ">BI"),
)
_BY_TYPE = {layout.cls: layout for layout in _LAYOUTS}
_BY_KIND = {layout.kind: layout for layout in _LAYOUTS}
#: Every control-message type, in type-byte order.
CONTROL_TYPES = tuple(_BY_TYPE)


def encode_control(message: ControlMessage, version: int = CONTROL_VERSION,
                   features: int = 0) -> bytes:
    """Serialize a control message, CRC included.

    ``version`` selects the frame layout; v2 additionally carries the
    negotiated ``features`` bits in the header.  Both layouts can carry
    every message type -- the frame version is about *framing*, so a
    session negotiated to v2 stamps its feature bits on every control
    message it sends.
    """
    layout = _BY_TYPE.get(type(message))
    if layout is None:
        raise WireFormatError(
            f"cannot serialize control message {type(message).__name__}")
    wire.check_header(CONTROL_FORMAT, version, CONTROL_VERSIONS, features)
    flow_id, *values = layout.read(message)
    if layout.cls is ConfigMessage:
        every, interval, threshold = values
        if interval is not None:
            # Round, never truncate: int() would drift encode->decode
            # round trips by up to 1 us per hop.
            interval = int(round(interval * 1e6))
        values = [_ABSENT if value is None else value
                  for value in (every, interval, threshold)]
    elif layout.cls is HelloAckMessage \
            and len(message.transcript) != TRANSCRIPT_BYTES:
        raise WireFormatError(
            f"hello-ack transcript is {len(message.transcript)} bytes, "
            f"expected {TRANSCRIPT_BYTES}")
    header = (version, features, layout.kind) if version >= 2 \
        else (version, layout.kind)
    return wire.seal(CONTROL_MAGIC + bytes(header)
                     + wire.pack_flow_id(flow_id) + layout.body.pack(*values))


def parse_control(frame: bytes) -> tuple[ControlMessage, int, int]:
    """Parse control-message bytes into ``(message, version, features)``.

    Malformed input raises :class:`~repro.errors.WireFormatError`.  The
    frame version and the negotiated-feature bits (0 under version 1)
    are returned alongside the message so the session layer can check
    frames against the negotiated configuration.
    """
    data = wire.unseal(CONTROL_FORMAT, frame, 10)
    if data[:2] != CONTROL_MAGIC:
        raise WireFormatError(f"bad control magic {data[:2]!r}")
    version = data[2]
    wire.check_header(CONTROL_FORMAT, version, CONTROL_VERSIONS, 0)
    features, at = 0, 3
    if version >= 2:
        if len(frame) < 11:
            raise WireFormatError(
                f"{CONTROL_FORMAT} too short: {len(frame)} bytes")
        features, at = data[3], 4
    flow_id, end = wire.unpack_flow_id(CONTROL_FORMAT, data, at + 1, 0)
    layout = _BY_KIND.get(data[at])
    if layout is None:
        raise WireFormatError(f"unknown control message type {data[at]}")
    if len(data) - end != layout.body.size:
        raise WireFormatError(
            f"{layout.name} body is {len(data) - end} bytes, "
            f"expected {layout.body.size}")
    values = layout.body.unpack_from(data, end)
    if layout.cls is ConfigMessage:
        every, interval, threshold = (None if value == _ABSENT else value
                                      for value in values)
        values = (every, None if interval is None else interval / 1e6,
                  threshold)
    return layout.cls(flow_id, *values), version, features


def decode_control(frame: bytes) -> ControlMessage:
    """Parse control-message bytes; malformed input raises WireFormatError."""
    return parse_control(frame)[0]


def quack_packet(src: str, dst: str, quack: PowerSumQuack, flow_id: str,
                 now: float, include_count: bool = True,
                 epoch: int = 0, version: int = wire.VERSION,
                 features: int = 0) -> Packet:
    """Wrap a quACK snapshot in a datagram addressed to a sidecar peer."""
    frame = wire.encode(quack, include_count=include_count,
                        include_checksum=True, version=version,
                        features=features)
    if obs.TRACER.enabled:
        obs.TRACER.emit("quack.encode", now, scheme="power_sum",
                        bytes=len(frame))
    return Packet(
        src=src, dst=dst,
        size_bytes=SIDECAR_HEADER_BYTES + len(frame),
        kind=PacketKind.QUACK,
        identifier=None, flow_id=flow_id, created_at=now,
        payload=QuackMessage(frame=frame, flow_id=flow_id, epoch=epoch),
    )


def control_packet(src: str, dst: str, message: ControlMessage,
                   now: float, version: int = CONTROL_VERSION,
                   features: int = 0) -> Packet:
    """Wrap any control message in a datagram addressed to a sidecar peer.

    The payload stays the dataclass (the simulator ships objects, not
    bytes) but the datagram is *sized* from the real encoding under the
    session's negotiated ``version``/``features``, so byte accounting and
    serialization contention are faithful to the wire.
    """
    size = len(encode_control(message, version=version, features=features))
    return Packet(
        src=src, dst=dst,
        size_bytes=SIDECAR_HEADER_BYTES + size,
        kind=PacketKind.CONTROL,
        identifier=None, flow_id=message.flow_id, created_at=now,
        payload=message,
    )
