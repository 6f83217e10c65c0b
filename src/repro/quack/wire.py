"""Wire format for quACKs.

The paper reports quACK sizes as raw payload bits (``t*b + c = 656`` bits
for the power-sum scheme in Table 2); the sidecar protocol additionally
needs a self-describing frame so endpoints can negotiate parameters.  This
module provides that frame:

========  =====  ==========================================
offset    size   field
========  =====  ==========================================
0         2      magic ``b"qK"``
2         1      version (1 or 2)
3         1      scheme (:class:`~repro.quack.base.QuackScheme`)
4         1      flags (bit 0: a count field is present;
                 bit 1: a trailing CRC-32 protects the frame)
5         1      negotiated-feature bits (version >= 2 only)
5/6..     --     scheme-specific body
-4..      4      CRC-32 over everything before it (flags bit 1 only)
========  =====  ==========================================

Version 2 differs from version 1 only by the negotiated-feature header
byte: the feature bits agreed during the capability handshake
(:mod:`repro.sidecar.negotiate`) ride every frame, so a peer can verify
each snapshot was produced under the negotiated configuration.  Both
versions are always decodable; which version an *encoder* uses is the
negotiation layer's business.

The checksum exists for the *sidecar channel*: sidecar datagrams cross
real networks and get bit-flipped, and without a checksum a flipped
power-sum byte below the field modulus parses into a structurally valid
quACK that later fails (or worse, mis-decodes) as an
``InconsistentQuackError``.  With the checksum, corruption is classified
where it belongs -- as a :class:`~repro.errors.WireFormatError` at parse
time.  Bare frames (no checksum bit) remain valid for storage and for
contexts with their own integrity layer.

Power-sum body: ``bits`` (1), ``threshold`` (2, big-endian), ``count_bits``
(1), the wrapped count (``ceil(c/8)`` bytes), then ``t`` power sums of
``ceil(b/8)`` bytes each.  The count may be omitted (flags bit 0 clear) for
the ACK-reduction configuration in which "we can omit c, which is always
n" (Section 4.3); the deserializer then takes the count from context.

Echo body: ``bits`` (1), ``n`` (4), then ``n`` identifiers.
Hash body: ``bits`` (1), ``count_bits`` (1), count, 32-byte SHA-256 digest.

The control frame and the checkpoint share this frame's version rules
and CRC, the *sidecar envelope* below; :func:`encode` and :func:`decode`
run once per quACK, so they keep the checks inline and call
:func:`check_header` only to raise.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache

from repro.errors import WireFormatError, unsupported_version
from repro.quack.base import Quack, QuackScheme
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack, HashQuack

MAGIC = b"qK"
VERSION = 1
#: Every version this build can encode and decode.
VERSIONS = (1, 2)
FORMAT_NAME = "quack frame"
_FLAG_HAS_COUNT = 0x01
_FLAG_HAS_CRC = 0x02
CRC_BYTES = 4


def _bytes_for_bits(bits: int) -> int:
    return (bits + 7) // 8


def encode(quack: Quack, include_count: bool = True,
           include_checksum: bool = False, version: int = VERSION,
           features: int = 0) -> bytes:
    """Serialize any quACK into a self-describing frame.

    ``include_checksum`` appends a CRC-32 (and sets flags bit 1) so the
    deserializer can reject bit-flipped frames outright; the sidecar
    protocol layer always asks for it.  ``version`` selects the frame
    layout (v2 carries the negotiated ``features`` bits; v1 cannot).
    """
    if version not in VERSIONS \
            or not 0 <= features <= (0xFF if version >= 2 else 0):
        check_header(FORMAT_NAME, version, VERSIONS, features)
    if isinstance(quack, PowerSumQuack):
        scheme, flags, body = _encode_power_sum(quack, include_count)
    elif isinstance(quack, EchoQuack):
        scheme, flags, body = _encode_echo(quack)
    elif isinstance(quack, HashQuack):
        scheme, flags, body = _encode_hash(quack)
    else:
        raise WireFormatError(f"cannot serialize {type(quack).__name__}")
    if include_checksum:
        flags |= _FLAG_HAS_CRC
    head = [MAGIC, bytes((version, scheme, flags))]
    if version >= 2:
        head.append(bytes((features,)))
    frame = b"".join(head) + body
    if include_checksum:
        frame += struct.pack(">I", zlib.crc32(frame))
    return frame


def frame_version(frame: bytes) -> int:
    """The version byte of a frame (no validation beyond the header)."""
    if len(frame) < 3 or frame[:2] != MAGIC:
        raise WireFormatError(f"bad magic {frame[:2]!r}")
    return frame[2]


def frame_features(frame: bytes) -> int:
    """The negotiated-feature bits a frame carries (0 for version 1)."""
    version = frame_version(frame)
    if version < 2:
        return 0
    if len(frame) < 6:
        raise WireFormatError(f"frame too short: {len(frame)} bytes")
    return frame[5]


def decode(frame: bytes, implicit_count: int | None = None) -> Quack:
    """Parse a frame back into a quACK object.

    ``implicit_count`` supplies the packet count for frames serialized
    without one (the ACK-reduction optimization); it is ignored otherwise.
    Every malformed input -- truncated, zero-length, bit-flipped -- raises
    :class:`~repro.errors.WireFormatError`, never anything else.
    """
    if len(frame) < 5:
        raise WireFormatError(f"frame too short: {len(frame)} bytes")
    if frame[:2] != MAGIC:
        raise WireFormatError(f"bad magic {frame[:2]!r}")
    version, scheme_raw, flags = frame[2], frame[3], frame[4]
    if version not in VERSIONS:
        check_header(FORMAT_NAME, version, VERSIONS, 0)
    body_at = 6 if version >= 2 else 5
    if len(frame) < body_at:
        raise WireFormatError(f"frame too short: {len(frame)} bytes")
    try:
        scheme = QuackScheme(scheme_raw)
    except ValueError as exc:
        raise WireFormatError(f"unknown scheme {scheme_raw}") from exc
    if flags & _FLAG_HAS_CRC:
        if len(frame) < body_at + CRC_BYTES:
            raise WireFormatError("frame too short to hold its checksum")
        (stated,) = struct.unpack(">I", frame[-CRC_BYTES:])
        computed = zlib.crc32(frame[:-CRC_BYTES])
        if stated != computed:
            raise WireFormatError(
                f"checksum mismatch: frame says {stated:#010x}, "
                f"bytes hash to {computed:#010x} (corrupt frame)"
            )
        frame = frame[:-CRC_BYTES]
    body = frame[body_at:]
    has_count = bool(flags & _FLAG_HAS_COUNT)
    try:
        if scheme is QuackScheme.POWER_SUM:
            return _decode_power_sum(body, has_count, implicit_count)
        if scheme is QuackScheme.ECHO:
            return _decode_echo(body)
        return _decode_hash(body)
    except WireFormatError:
        raise
    except (ValueError, OverflowError, struct.error) as exc:
        # Structurally plausible frames can still carry parameters no
        # quACK accepts (bits=0, absurd widths); network input must
        # surface as a wire error, not a constructor exception.
        raise WireFormatError(f"unusable frame parameters: {exc}") from exc


# -- the sidecar envelope -------------------------------------------------------

def check_header(format_name: str, version: int, versions: tuple[int, ...],
                 features: int) -> None:
    """Raise unless ``version`` is one of ``versions`` and ``features``
    fits the header: feature bits only from version 2 on, in one byte."""
    if version not in versions:
        raise unsupported_version(format_name, version, versions)
    if version < 2 and features:
        raise WireFormatError(
            f"{format_name}: feature bits {features:#04x} need version >= 2")
    if not 0 <= features <= 0xFF:
        raise WireFormatError(
            f"{format_name}: feature bits {features:#x} exceed one byte")


def seal(body: bytes) -> bytes:
    """``body`` with its CRC-32 trailer appended."""
    return body + struct.pack(">I", zlib.crc32(body))


def unseal(format_name: str, frame: bytes, shortest: int) -> bytes:
    """``frame`` without its CRC-32 trailer, once the trailer checks out;
    a frame shorter than ``shortest`` bytes is refused first."""
    if len(frame) < shortest:
        raise WireFormatError(f"{format_name} too short: {len(frame)} bytes")
    body = frame[:-CRC_BYTES]
    if int.from_bytes(frame[-CRC_BYTES:], "big") != zlib.crc32(body):
        raise WireFormatError(f"{format_name} checksum mismatch")
    return body


def pack_flow_id(flow_id: str) -> bytes:
    """The flow id as a u16 length and its UTF-8 bytes."""
    flow = flow_id.encode("utf-8")
    return struct.pack(">H", len(flow)) + flow


def unpack_flow_id(format_name: str, data: bytes, at: int,
                   tail: int) -> tuple[str, int]:
    """The flow id packed at ``data[at]`` and the offset just past it;
    at least ``tail`` bytes must follow it."""
    (length,) = struct.unpack_from(">H", data, at)
    end = at + 2 + length
    if len(data) < end + tail:
        raise WireFormatError(f"{format_name} truncated inside flow id")
    try:
        return data[at + 2:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"undecodable flow id: {exc}") from exc


# -- power sum ----------------------------------------------------------------

_SUM_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=64)  # bounded: both keys arrive from the network
def _sums_layout(threshold: int, width: int) -> struct.Struct | None:
    """The ``threshold`` power sums of ``width`` bytes as one record, or
    None for a width ``struct`` has no code for (24-bit identifiers)."""
    code = _SUM_CODES.get(width)
    return struct.Struct(f">{threshold}{code}") if code else None


def _encode_power_sum(quack: PowerSumQuack,
                      include_count: bool) -> tuple[int, int, bytes]:
    flags = _FLAG_HAS_COUNT if include_count else 0
    sums = quack.power_sums     # folds what was recorded, count included
    parts = [struct.pack(">BHB", quack.bits, quack.threshold,
                         quack.count_bits)]
    if include_count:
        parts.append(quack._count.to_bytes(
            _bytes_for_bits(quack.count_bits), "big"))
    width = _bytes_for_bits(quack.bits)
    layout = _sums_layout(quack.threshold, width)
    if layout is not None:
        parts.append(layout.pack(*sums))
    else:
        parts.extend(value.to_bytes(width, "big") for value in sums)
    return QuackScheme.POWER_SUM, flags, b"".join(parts)


def _decode_power_sum(body: bytes, has_count: bool,
                      implicit_count: int | None) -> PowerSumQuack:
    if len(body) < 4:
        raise WireFormatError("truncated power-sum header")
    bits, threshold, count_bits = struct.unpack(">BHB", body[:4])
    offset = 4
    if has_count:
        count_width = _bytes_for_bits(count_bits)
        if len(body) < offset + count_width:
            raise WireFormatError("truncated count field")
        count = int.from_bytes(body[offset:offset + count_width], "big")
        offset += count_width
    elif implicit_count is None:
        raise WireFormatError(
            "frame omits the count and no implicit_count was supplied"
        )
    else:
        count = implicit_count & ((1 << count_bits) - 1)
    width = _bytes_for_bits(bits)
    expected = offset + threshold * width
    if len(body) != expected:
        raise WireFormatError(
            f"power-sum body is {len(body)} bytes, expected {expected}"
        )
    quack = PowerSumQuack(threshold, bits, count_bits)
    layout = _sums_layout(threshold, width)
    if layout is not None:
        sums = list(layout.unpack_from(body, offset))
    else:
        sums = [int.from_bytes(body[start:start + width], "big")
                for start in range(offset, expected, width)]
    modulus = quack.field.modulus
    if max(sums) >= modulus:
        value = next(value for value in sums if value >= modulus)
        raise WireFormatError(
            f"power sum {value} is not a residue mod {modulus}")
    quack._sums = sums
    quack._count = count
    return quack


# -- echo -----------------------------------------------------------------------

def _encode_echo(quack: EchoQuack) -> tuple[int, int, bytes]:
    ids = sorted(quack.received.elements())
    parts = [struct.pack(">BI", quack.bits, len(ids))]
    width = _bytes_for_bits(quack.bits)
    parts.extend(int(i).to_bytes(width, "big") for i in ids)
    return QuackScheme.ECHO, _FLAG_HAS_COUNT, b"".join(parts)


def _decode_echo(body: bytes) -> EchoQuack:
    if len(body) < 5:
        raise WireFormatError("truncated echo header")
    bits, n = struct.unpack(">BI", body[:5])
    width = _bytes_for_bits(bits)
    expected = 5 + n * width
    if len(body) != expected:
        raise WireFormatError(f"echo body is {len(body)} bytes, expected {expected}")
    quack = EchoQuack(bits)
    for i in range(n):
        start = 5 + i * width
        quack.insert(int.from_bytes(body[start:start + width], "big"))
    return quack


# -- hash ------------------------------------------------------------------------

def _encode_hash(quack: HashQuack) -> tuple[int, int, bytes]:
    body = b"".join([
        struct.pack(">BB", quack.bits, quack.count_bits),
        quack.count.to_bytes(_bytes_for_bits(quack.count_bits), "big"),
        quack.digest(),
    ])
    return QuackScheme.HASH, _FLAG_HAS_COUNT, body


def _decode_hash(body: bytes) -> HashQuack:
    if len(body) < 2:
        raise WireFormatError("truncated hash header")
    bits, count_bits = struct.unpack(">BB", body[:2])
    count_width = _bytes_for_bits(count_bits)
    expected = 2 + count_width + HashQuack.DIGEST_BITS // 8
    if len(body) != expected:
        raise WireFormatError(f"hash body is {len(body)} bytes, expected {expected}")
    count = int.from_bytes(body[2:2 + count_width], "big")
    digest = body[2 + count_width:]
    return HashQuack.from_digest(digest, count, bits=bits, count_bits=count_bits)
