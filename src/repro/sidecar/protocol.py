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
ride the CRC-carrying quACK wire format; control messages have their own
tiny CRC-protected encoding (:func:`encode_control` /
:func:`decode_control`).  A datagram whose bytes no longer parse is
represented in the simulator as a :class:`CorruptFrame`, which every
receiving agent counts and drops.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro import obs
from repro.errors import WireFormatError, unsupported_version
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack

#: IP/UDP overhead of a sidecar datagram.
SIDECAR_HEADER_BYTES = 28

#: Magic prefix of serialized control messages (reset/config).
CONTROL_MAGIC = b"sC"
CONTROL_VERSION = 1
#: Every control-frame version this build can encode and decode.  v2
#: inserts a negotiated-feature byte between the version and the kind.
CONTROL_VERSIONS = (1, 2)
CONTROL_FORMAT = "control frame"
_CONTROL_RESET = 1
_CONTROL_CONFIG = 2
_CONTROL_RESUME = 3
_CONTROL_HELLO = 4
_CONTROL_HELLO_ACK = 5
_CONTROL_VERSION_SWITCH = 6
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
#
# offset  size  field
# 0       2     magic b"sC"
# 2       1     version (1 or 2)
# 3       1     negotiated-feature bits (version >= 2 only)
# 3/4     1     type (1 = reset, 2 = config, 3 = resume, 4 = hello,
#               5 = hello-ack, 6 = version-switch)
# ..      2     flow-id length, big-endian, then the UTF-8 flow id
# ..      --    type-specific fields (reset: epoch u32; config: every_n
#               u32, interval_us u32, threshold u32 -- 0xFFFFFFFF = absent;
#               resume: epoch u32, count u32; hello: min u8, max u8,
#               threshold u16, bits u8, interval_us u32, features u32;
#               hello-ack: version u8, threshold u16, bits u8,
#               interval_us u32, features u32, transcript 32 bytes;
#               version-switch: version u8, epoch u32)
# -4      4     CRC-32 over everything before it

ControlMessage = (ResetMessage | ConfigMessage | ResumeMessage
                  | HelloMessage | HelloAckMessage | VersionSwitchMessage)

_CONTROL_KINDS: dict[type, int] = {
    ResetMessage: _CONTROL_RESET,
    ConfigMessage: _CONTROL_CONFIG,
    ResumeMessage: _CONTROL_RESUME,
    HelloMessage: _CONTROL_HELLO,
    HelloAckMessage: _CONTROL_HELLO_ACK,
    VersionSwitchMessage: _CONTROL_VERSION_SWITCH,
}


def _encode_body(message: ControlMessage) -> bytes:
    if isinstance(message, ResetMessage):
        return struct.pack(">I", message.epoch)
    if isinstance(message, ResumeMessage):
        return struct.pack(">II", message.epoch, message.count)
    if isinstance(message, ConfigMessage):
        every = _ABSENT if message.every_n is None else message.every_n
        # Round, never truncate: int() would drift encode->decode round
        # trips by up to 1 us per hop.
        interval = _ABSENT if message.interval_s is None \
            else int(round(message.interval_s * 1e6))
        threshold = _ABSENT if message.threshold is None else message.threshold
        return struct.pack(">III", every, interval, threshold)
    if isinstance(message, HelloMessage):
        return struct.pack(">BBHBII", message.min_version,
                           message.max_version, message.threshold,
                           message.bits, message.interval_us,
                           message.features)
    if isinstance(message, HelloAckMessage):
        if len(message.transcript) != TRANSCRIPT_BYTES:
            raise WireFormatError(
                f"hello-ack transcript is {len(message.transcript)} bytes, "
                f"expected {TRANSCRIPT_BYTES}")
        return struct.pack(">BHBII", message.version, message.threshold,
                           message.bits, message.interval_us,
                           message.features) + message.transcript
    return struct.pack(">BI", message.version, message.epoch)


def encode_control(message: ControlMessage, version: int = CONTROL_VERSION,
                   features: int = 0) -> bytes:
    """Serialize a control message, CRC included.

    ``version`` selects the frame layout; v2 additionally carries the
    negotiated ``features`` bits in the header.  Both layouts can carry
    every message type -- the frame version is about *framing*, so a
    session negotiated to v2 stamps its feature bits on every control
    message it sends.
    """
    if type(message) not in _CONTROL_KINDS:
        raise WireFormatError(
            f"cannot serialize control message {type(message).__name__}")
    if version not in CONTROL_VERSIONS:
        raise unsupported_version(CONTROL_FORMAT, version, CONTROL_VERSIONS)
    if version < 2 and features:
        raise WireFormatError(
            f"{CONTROL_FORMAT}: feature bits {features:#04x} need "
            f"version >= 2")
    if not 0 <= features <= 0xFF:
        raise WireFormatError(
            f"{CONTROL_FORMAT}: feature bits {features:#x} exceed one byte")
    flow = message.flow_id.encode("utf-8")
    head = [CONTROL_MAGIC, bytes((version,))]
    if version >= 2:
        head.append(bytes((features,)))
    head.append(bytes((_CONTROL_KINDS[type(message)],)))
    head.append(struct.pack(">H", len(flow)))
    head.append(flow)
    head.append(_encode_body(message))
    body = b"".join(head)
    return body + struct.pack(">I", zlib.crc32(body))


def _decode_body(kind: int, flow_id: str, rest: bytes) -> ControlMessage:
    if kind == _CONTROL_RESET:
        if len(rest) != 4:
            raise WireFormatError(f"reset body is {len(rest)} bytes, expected 4")
        (epoch,) = struct.unpack(">I", rest)
        return ResetMessage(flow_id=flow_id, epoch=epoch)
    if kind == _CONTROL_RESUME:
        if len(rest) != 8:
            raise WireFormatError(
                f"resume body is {len(rest)} bytes, expected 8")
        epoch, count = struct.unpack(">II", rest)
        return ResumeMessage(flow_id=flow_id, epoch=epoch, count=count)
    if kind == _CONTROL_CONFIG:
        if len(rest) != 12:
            raise WireFormatError(f"config body is {len(rest)} bytes, expected 12")
        every, interval, threshold = struct.unpack(">III", rest)
        return ConfigMessage(
            flow_id=flow_id,
            every_n=None if every == _ABSENT else every,
            interval_s=None if interval == _ABSENT else interval / 1e6,
            threshold=None if threshold == _ABSENT else threshold,
        )
    if kind == _CONTROL_HELLO:
        if len(rest) != 13:
            raise WireFormatError(
                f"hello body is {len(rest)} bytes, expected 13")
        low, high, threshold, bits, interval_us, feats = \
            struct.unpack(">BBHBII", rest)
        return HelloMessage(flow_id=flow_id, min_version=low,
                            max_version=high, threshold=threshold,
                            bits=bits, interval_us=interval_us,
                            features=feats)
    if kind == _CONTROL_HELLO_ACK:
        if len(rest) != 12 + TRANSCRIPT_BYTES:
            raise WireFormatError(
                f"hello-ack body is {len(rest)} bytes, expected "
                f"{12 + TRANSCRIPT_BYTES}")
        chosen, threshold, bits, interval_us, feats = \
            struct.unpack(">BHBII", rest[:12])
        return HelloAckMessage(flow_id=flow_id, version=chosen,
                               threshold=threshold, bits=bits,
                               interval_us=interval_us, features=feats,
                               transcript=rest[12:])
    if kind == _CONTROL_VERSION_SWITCH:
        if len(rest) != 5:
            raise WireFormatError(
                f"version-switch body is {len(rest)} bytes, expected 5")
        chosen, epoch = struct.unpack(">BI", rest)
        return VersionSwitchMessage(flow_id=flow_id, version=chosen,
                                    epoch=epoch)
    raise WireFormatError(f"unknown control message type {kind}")


def parse_control(frame: bytes) -> tuple[ControlMessage, int, int]:
    """Parse control-message bytes into ``(message, version, features)``.

    Malformed input raises :class:`~repro.errors.WireFormatError`.  The
    frame version and the negotiated-feature bits (0 under version 1)
    are returned alongside the message so the session layer can check
    frames against the negotiated configuration.
    """
    if len(frame) < 10:
        raise WireFormatError(f"control frame too short: {len(frame)} bytes")
    (stated,) = struct.unpack(">I", frame[-4:])
    if stated != zlib.crc32(frame[:-4]):
        raise WireFormatError("control frame checksum mismatch")
    if frame[:2] != CONTROL_MAGIC:
        raise WireFormatError(f"bad control magic {frame[:2]!r}")
    version = frame[2]
    if version not in CONTROL_VERSIONS:
        raise unsupported_version(CONTROL_FORMAT, version, CONTROL_VERSIONS)
    features = 0
    offset = 3
    if version >= 2:
        if len(frame) < 11:
            raise WireFormatError(
                f"control frame too short: {len(frame)} bytes")
        features = frame[3]
        offset = 4
    kind = frame[offset]
    (flow_len,) = struct.unpack(">H", frame[offset + 1:offset + 3])
    body = frame[offset + 3:-4]
    if len(body) < flow_len:
        raise WireFormatError("control frame truncated inside flow id")
    try:
        flow_id = body[:flow_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"undecodable flow id: {exc}") from exc
    return _decode_body(kind, flow_id, body[flow_len:]), version, features


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
