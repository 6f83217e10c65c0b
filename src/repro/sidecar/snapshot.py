"""Middlebox checkpoint/restore: survive a restart without a full reset.

Without this module a crashed middlebox loses its cumulative power-sum
state; the consumer detects the count regression and heals with the
Section 3.3 reset protocol -- a full round-trip with the sender paused
for two settle windows.  With it, the emitter periodically serializes
its accumulator to stable storage (:class:`CheckpointStore`, the
simulator's stand-in for a file the process re-reads after a reboot)
and, on restart, restores the latest checkpoint and announces itself
with a :class:`~repro.sidecar.protocol.ResumeMessage` instead of coming
back empty.

The restore is deliberately allowed to be *stale*: packets observed
after the checkpoint but before the crash (the gap, bounded by the
checkpoint interval) are simply absent from the restored accumulator.
Most of the gap was already *confirmed received* by pre-crash snapshots
-- those identifiers are still folded into the sender's power sums but
long gone from its log, so no amount of decoding can re-resolve them.
The consumer therefore keeps a bounded ring of recently confirmed
identifiers and, on an accepted resume, arms a one-shot reconciliation
(:meth:`~repro.sidecar.consumer.QuackConsumer.arm_reconciliation`):
the next decode also matches roots against that ring, and gap
identifiers found there are retired from the sender sums silently --
not declared lost, no retransmission (their end-to-end ACKs long since
covered them).  Unconfirmed gap packets still in the log take the
normal strike path.  After that one decode both cumulative states agree
exactly, so assistance resumes within one resume-handshake delivery
instead of a reset round-trip, which the trace analytics' dwell-time
comparison makes visible.

Checkpoints are framed like every other sidecar byte string: magic,
version, and a trailing CRC-32, with any malformation raising
:class:`~repro.errors.WireFormatError` -- a half-written or bit-rotted
checkpoint must cold-start the emitter, never restore garbage into the
session.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.errors import WireFormatError, unsupported_version
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.defense import resume_implausibility

#: Magic prefix of serialized checkpoints ("sidecar Snapshot").
CHECKPOINT_MAGIC = b"sK"
CHECKPOINT_VERSION = 1
#: Every checkpoint version this build can encode and decode.  v2
#: additionally persists the negotiated session (wire version + feature
#: bits) so a restarted middlebox resumes under the configuration it
#: agreed to, not a cold default.
CHECKPOINT_VERSIONS = (1, 2)
CHECKPOINT_FORMAT = "checkpoint"


@dataclass(frozen=True)
class EmitterCheckpoint:
    """One serialized emitter state: epoch plus the accumulator frame.

    ``frame`` is the quACK wire encoding (count and CRC included) of the
    accumulator at ``taken_at`` -- the same bytes a snapshot would put on
    the wire, so the restore path reuses the wire decoder and all its
    validation.  ``wire_version``/``features`` record the negotiated
    session (checkpoint v2); a v1 checkpoint restores as an
    un-negotiated v1 session.
    """

    flow_id: str
    epoch: int
    taken_at: float
    frame: bytes
    wire_version: int = 1
    features: int = 0

    def quack(self) -> PowerSumQuack:
        """Deserialize the checkpointed accumulator (validating its CRC)."""
        decoded = wire.decode(self.frame)
        if not isinstance(decoded, PowerSumQuack):
            raise WireFormatError(
                "checkpoint does not carry a power-sum quACK")
        return decoded


def encode_checkpoint(checkpoint: EmitterCheckpoint,
                      version: int | None = None) -> bytes:
    """Serialize a checkpoint, CRC included.

    Layout: magic ``sK``, version, flow-id length u16 + UTF-8 flow id,
    epoch u32, taken_at f64, [v2 only: wire_version u8 + features u8,]
    frame length u32 + frame bytes, CRC-32 trailer over everything
    before it.  ``version=None`` picks v2 automatically when the
    checkpoint carries negotiated state, v1 otherwise.
    """
    if version is None:
        negotiated = checkpoint.wire_version != 1 or checkpoint.features != 0
        version = 2 if negotiated else CHECKPOINT_VERSION
    if version not in CHECKPOINT_VERSIONS:
        raise unsupported_version(CHECKPOINT_FORMAT, version,
                                  CHECKPOINT_VERSIONS)
    if version < 2 and (checkpoint.wire_version != 1 or checkpoint.features):
        raise WireFormatError(
            f"{CHECKPOINT_FORMAT}: negotiated session state (wire version "
            f"{checkpoint.wire_version}, features "
            f"{checkpoint.features:#04x}) needs version >= 2")
    flow = checkpoint.flow_id.encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        bytes((version,)),
        struct.pack(">H", len(flow)),
        flow,
        struct.pack(">Id", checkpoint.epoch, checkpoint.taken_at),
    ]
    if version >= 2:
        parts.append(struct.pack(
            ">BB", checkpoint.wire_version, checkpoint.features))
    parts.append(struct.pack(">I", len(checkpoint.frame)))
    parts.append(checkpoint.frame)
    body = b"".join(parts)
    return body + struct.pack(">I", zlib.crc32(body))


def decode_checkpoint(blob: bytes) -> EmitterCheckpoint:
    """Parse checkpoint bytes; any malformation raises WireFormatError."""
    if len(blob) < 25:
        raise WireFormatError(f"checkpoint too short: {len(blob)} bytes")
    (stated,) = struct.unpack(">I", blob[-4:])
    if stated != zlib.crc32(blob[:-4]):
        raise WireFormatError("checkpoint checksum mismatch")
    if blob[:2] != CHECKPOINT_MAGIC:
        raise WireFormatError(f"bad checkpoint magic {blob[:2]!r}")
    version = blob[2]
    if version not in CHECKPOINT_VERSIONS:
        raise unsupported_version(CHECKPOINT_FORMAT, version,
                                  CHECKPOINT_VERSIONS)
    session_bytes = 2 if version >= 2 else 0
    (flow_len,) = struct.unpack(">H", blob[3:5])
    rest = blob[5:-4]
    if len(rest) < flow_len + 16 + session_bytes:
        raise WireFormatError("checkpoint truncated inside flow id")
    try:
        flow_id = rest[:flow_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"undecodable flow id: {exc}") from exc
    epoch, taken_at = struct.unpack(">Id", rest[flow_len:flow_len + 12])
    offset = flow_len + 12
    wire_version, features = 1, 0
    if version >= 2:
        wire_version, features = struct.unpack(
            ">BB", rest[offset:offset + 2])
        offset += 2
    (frame_len,) = struct.unpack(">I", rest[offset:offset + 4])
    frame = rest[offset + 4:]
    if len(frame) != frame_len:
        raise WireFormatError(
            f"checkpoint frame is {len(frame)} bytes, stated {frame_len}")
    return EmitterCheckpoint(flow_id=flow_id, epoch=epoch,
                             taken_at=taken_at, frame=frame,
                             wire_version=wire_version, features=features)


def restore_checkpoint(blob: bytes, flow_id: str, threshold: int) \
        -> tuple[EmitterCheckpoint, PowerSumQuack] | None:
    """The checkpoint and accumulator a restarting emitter may adopt.
    None means cold start, exactly as if no checkpoint existed: the blob
    fails its CRC (a torn write, bit rot), or describes another flow or
    another quACK configuration."""
    try:
        checkpoint = decode_checkpoint(blob)
        restored = checkpoint.quack()
    except WireFormatError:
        return None
    if checkpoint.flow_id != flow_id or restored.threshold != threshold:
        return None
    return checkpoint, restored


def resume_verdict(epoch: int, count: int, current_epoch: int,
                   sent_count: int, modulus: int) -> str:
    """The consumer's answer to a ResumeMessage claiming ``(epoch, count)``.

    ``stale``: a pre-reset checkpoint was restored -- not adversarial,
    but it describes an abandoned epoch, so the reset is repeated.
    ``implausible``: no honest restart says this
    (:func:`~repro.sidecar.defense.resume_implausibility`); answered
    with a full reset, and a signal where the defense is armed.
    ``plausible``: re-base the expected emitter count at ``count`` and
    arm gap reconciliation -- no pause, no reset round-trip.
    """
    if epoch < current_epoch:
        return "stale"
    if resume_implausibility(epoch, count, current_epoch, sent_count,
                             modulus) is not None:
        return "implausible"
    return "plausible"


class CheckpointStore:
    """Latest-wins stable storage for one emitter's checkpoints.

    Models the file on the middlebox's disk: it survives
    ``crash_restart()`` (which only wipes *volatile* state) and hands
    back exactly the bytes last written -- or whatever a chaos test
    poked into :attr:`blob` to model torn writes and bit rot.
    """

    def __init__(self) -> None:
        self.blob: bytes | None = None
        self.writes = 0
        self.loads = 0

    def save(self, blob: bytes) -> None:
        self.blob = blob
        self.writes += 1

    def load(self) -> bytes | None:
        if self.blob is not None:
            self.loads += 1
        return self.blob

    def clear(self) -> None:
        self.blob = None

    def __repr__(self) -> str:
        size = len(self.blob) if self.blob is not None else 0
        return f"CheckpointStore({self.writes} writes, latest {size} B)"
