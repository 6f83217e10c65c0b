"""Generated conformance vectors for the sidecar wire formats.

A second implementation of the sidecar protocol (a kernel module, an
eBPF emitter, a proxy in another language) needs something sturdier to
test against than "read the Python": checked-in, human-diffable JSON
vectors that pin the exact bytes of every message type under every
frame version, the negotiation algebra (version selection, parameter
clamping, transcript hashes), and the malformed inputs every conforming
decoder must *reject*.

Five suites, one JSON file each under ``tests/vectors/``:

* ``control``     -- every control-message kind x frame version: the
  frame bytes and the decoded field values (round-trip pinned both
  ways);
* ``quack``       -- quACK frames across schemes, versions, count/CRC
  flag combinations, including the ACK-reduction implicit-count form;
* ``checkpoint``  -- emitter checkpoints, v1 and the v2 form that
  persists the negotiated session;
* ``negotiation`` -- HELLO offers with their SHA-256 transcripts and
  the HELLO-ACK (or refusal) a conforming responder must produce,
  including downgrade and no-overlap cases;
* ``malformed``   -- byte strings a conforming decoder must reject
  with :class:`~repro.errors.WireFormatError`, each pinned to a
  required substring of the error message (so the unified
  unsupported-version wording is itself conformance-tested).

Everything is deterministic -- fixed inputs, CRC-32, SHA-256 -- so
``generate`` is reproducible byte-for-byte and CI can fail when the
checked-in vectors drift from the code (the ``vectors-freshness`` job).
``check`` does two independent things: re-derives the suites and diffs
them against the files (freshness), then *executes* every vector
against the real encoders/decoders (conformance), so a vector that was
hand-edited into agreement still cannot pass.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

from repro.errors import WireFormatError
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack, HashQuack
from repro.sidecar import snapshot
from repro.sidecar.negotiate import Capabilities, hello_transcript, respond
from repro.sidecar import protocol
from repro.sidecar.protocol import (
    ConfigMessage,
    ControlMessage,
    HelloAckMessage,
    HelloMessage,
    ResetMessage,
    ResumeMessage,
    VersionSwitchMessage,
)

#: The directory the vectors live in, relative to the repo root.
DEFAULT_DIR = "tests/vectors"

SUITES = ("control", "quack", "checkpoint", "negotiation", "malformed")


def _message_to_dict(message: ControlMessage) -> dict[str, Any]:
    record: dict[str, Any] = {"type": type(message).__name__}
    for key, value in dataclasses.asdict(message).items():
        record[key] = value.hex() if isinstance(value, bytes) else value
    return record


def _message_from_dict(record: dict[str, Any]) -> ControlMessage:
    kinds = {cls.__name__: cls for cls in protocol.CONTROL_TYPES}
    cls = kinds[record["type"]]
    fields = {key: value for key, value in record.items() if key != "type"}
    if "transcript" in fields:
        fields["transcript"] = bytes.fromhex(fields["transcript"])
    return cls(**fields)


def _recrc(frame: bytes, mutate: Callable[[bytearray], None]) -> bytes:
    """Mutate a CRC-trailed frame and restore a valid trailing CRC-32.

    Used to build malformed-but-checksummed vectors: the corruption must
    survive the CRC gate to prove the *structural* validation rejects it.
    """
    data = bytearray(frame[:-4])
    mutate(data)
    return wire.seal(bytes(data))


# -- suite builders ------------------------------------------------------------

def _control_messages() -> list[ControlMessage]:
    transcript = hello_transcript(HelloMessage(
        flow_id="flow-7", min_version=1, max_version=2,
        threshold=20, bits=32, interval_us=0, features=7))
    return [
        ResetMessage(flow_id="flow-7", epoch=3),
        ConfigMessage(flow_id="flow-7", every_n=32,
                      interval_s=0.0425, threshold=24),
        ConfigMessage(flow_id="flow-7", every_n=None,
                      interval_s=None, threshold=None),
        ResumeMessage(flow_id="flow-7", epoch=2, count=5120),
        HelloMessage(flow_id="flow-7", min_version=1, max_version=2,
                     threshold=20, bits=32, interval_us=0, features=7),
        HelloAckMessage(flow_id="flow-7", version=2, threshold=20,
                        bits=32, interval_us=0, features=7,
                        transcript=transcript),
        VersionSwitchMessage(flow_id="flow-7", version=2, epoch=0),
    ]


def _build_control() -> list[dict[str, Any]]:
    vectors = []
    for message in _control_messages():
        for version, features in ((1, 0), (2, 0), (2, 0x07)):
            frame = protocol.encode_control(message, version=version,
                                            features=features)
            label = type(message).__name__.removesuffix("Message").lower()
            vectors.append({
                "name": f"{label}-v{version}-f{features:02x}",
                "frame": frame.hex(),
                "version": version,
                "features": features,
                "message": _message_to_dict(message),
            })
    return vectors


def _sample_quacks() -> list[tuple[str, Any]]:
    power = PowerSumQuack(threshold=4, bits=16, count_bits=16)
    power.insert_many([11, 22, 33])
    echo = EchoQuack(16)
    for identifier in (11, 22, 33):
        echo.insert(identifier)
    hashed = HashQuack(bits=16, count_bits=16)
    for identifier in (11, 22, 33):
        hashed.insert(identifier)
    return [("power-sum", power), ("echo", echo), ("hash", hashed)]


def _build_quack() -> list[dict[str, Any]]:
    vectors = []
    for label, quack in _sample_quacks():
        for version, features in ((1, 0), (2, 0), (2, 0x07)):
            for checksum in (False, True):
                frame = wire.encode(quack, include_count=True,
                                    include_checksum=checksum,
                                    version=version, features=features)
                vectors.append({
                    "name": f"{label}-v{version}-f{features:02x}"
                            f"-{'crc' if checksum else 'bare'}",
                    "frame": frame.hex(),
                    "version": version,
                    "features": features,
                    "include_count": True,
                    "include_checksum": checksum,
                    "implicit_count": None,
                    "count": quack.count,
                })
    # The ACK-reduction form: "we can omit c, which is always n"
    # (Section 4.3) -- the count comes from context at decode time.
    power = _sample_quacks()[0][1]
    for version in (1, 2):
        frame = wire.encode(power, include_count=False,
                            include_checksum=True, version=version)
        vectors.append({
            "name": f"power-sum-v{version}-f00-implicit-count",
            "frame": frame.hex(),
            "version": version,
            "features": 0,
            "include_count": False,
            "include_checksum": True,
            "implicit_count": power.count,
            "count": power.count,
        })
    return vectors


def _sample_checkpoints() -> list[tuple[str, snapshot.EmitterCheckpoint]]:
    power = PowerSumQuack(threshold=4, bits=16, count_bits=16)
    power.insert_many([11, 22, 33])
    frame = wire.encode(power, include_count=True, include_checksum=True)
    return [
        ("v1-plain", snapshot.EmitterCheckpoint(
            flow_id="flow-7", epoch=1, taken_at=0.5, frame=frame)),
        ("v2-negotiated", snapshot.EmitterCheckpoint(
            flow_id="flow-7", epoch=1, taken_at=0.5, frame=frame,
            wire_version=2, features=0x07)),
    ]


def _build_checkpoint() -> list[dict[str, Any]]:
    vectors = []
    for name, checkpoint in _sample_checkpoints():
        blob = snapshot.encode_checkpoint(checkpoint)
        vectors.append({
            "name": name,
            "blob": blob.hex(),
            "flow_id": checkpoint.flow_id,
            "epoch": checkpoint.epoch,
            "taken_at": checkpoint.taken_at,
            "frame": checkpoint.frame.hex(),
            "wire_version": checkpoint.wire_version,
            "features": checkpoint.features,
        })
    return vectors


def _negotiation_cases() -> list[tuple[str, HelloMessage, Capabilities]]:
    offer = HelloMessage(flow_id="flow-7", min_version=1, max_version=2,
                         threshold=20, bits=32, interval_us=0, features=7)
    return [
        ("mutual-v2", offer, Capabilities()),
        ("negotiate-down-to-v1", offer,
         Capabilities(min_version=1, max_version=1)),
        ("version-skew-picks-highest-mutual",
         dataclasses.replace(offer, max_version=3),
         Capabilities(min_version=1, max_version=2)),
        ("responder-clamps-parameters", offer,
         Capabilities(threshold=10, bits=16, features=0x03)),
        ("no-overlap-refuses", offer,
         Capabilities(min_version=3, max_version=4)),
        ("rewritten-offer-changes-transcript",
         dataclasses.replace(offer, max_version=1, features=0),
         Capabilities()),
    ]


def _build_negotiation() -> list[dict[str, Any]]:
    vectors = []
    for name, offer, own in _negotiation_cases():
        ack = respond(offer, own)
        vectors.append({
            "name": name,
            "offer": _message_to_dict(offer),
            "offer_frame": protocol.encode_control(offer, version=1).hex(),
            # The format's slot for an interval preference nobody states.
            "responder": {**dataclasses.asdict(own), "interval_us": 0},
            "transcript": hello_transcript(offer).hex(),
            "ack": None if ack is None else _message_to_dict(ack),
        })
    return vectors


def _build_malformed() -> list[dict[str, Any]]:
    control = protocol.encode_control(ResetMessage(flow_id="flow-7", epoch=3))
    control_v2 = protocol.encode_control(
        ResetMessage(flow_id="flow-7", epoch=3), version=2, features=0x07)
    checkpoint = snapshot.encode_checkpoint(_sample_checkpoints()[0][1])
    quack_frame = wire.encode(_sample_quacks()[0][1], include_count=True,
                              include_checksum=True)

    def set_byte(index: int, value: int) -> Callable[[bytearray], None]:
        def mutate(data: bytearray) -> None:
            data[index] = value
        return mutate

    def truncate(n: int) -> Callable[[bytearray], None]:
        def mutate(data: bytearray) -> None:
            del data[-n:]
        return mutate

    cases = [
        # -- control frames --
        ("control", "unsupported-version",
         _recrc(control, set_byte(2, 3)), "unsupported version 3"),
        ("control", "version-zero",
         _recrc(control, set_byte(2, 0)), "unsupported version 0"),
        ("control", "unknown-kind",
         _recrc(control, set_byte(3, 9)), "unknown control message type 9"),
        ("control", "bad-magic",
         _recrc(control, set_byte(0, ord("x"))), "bad control magic"),
        ("control", "checksum-mismatch",
         control[:-1] + bytes((control[-1] ^ 0xFF,)), "checksum mismatch"),
        ("control", "truncated-reset-body",
         _recrc(control, truncate(1)), "reset body is 3 bytes"),
        ("control", "empty", b"", "too short"),
        ("control", "v2-truncated-body",
         _recrc(control_v2, truncate(1)), "reset body is 3 bytes"),
        # -- quACK frames --
        ("quack", "unsupported-version",
         _recrc(quack_frame, set_byte(2, 9)), "unsupported version 9"),
        ("quack", "unknown-scheme",
         _recrc(quack_frame, set_byte(3, 0x7F)), "unknown scheme 127"),
        ("quack", "checksum-mismatch",
         quack_frame[:-1] + bytes((quack_frame[-1] ^ 0xFF,)),
         "checksum mismatch"),
        ("quack", "truncated-body",
         _recrc(quack_frame, truncate(1)), "power-sum body"),
        ("quack", "empty", b"", "too short"),
        # -- checkpoints --
        ("checkpoint", "unsupported-version",
         _recrc(checkpoint, set_byte(2, 7)), "unsupported version 7"),
        ("checkpoint", "bad-magic",
         _recrc(checkpoint, set_byte(0, ord("x"))), "bad checkpoint magic"),
        ("checkpoint", "checksum-mismatch",
         checkpoint[:-1] + bytes((checkpoint[-1] ^ 0xFF,)),
         "checksum mismatch"),
        ("checkpoint", "truncated-frame",
         _recrc(checkpoint, truncate(1)), "stated"),
        ("checkpoint", "empty", b"", "too short"),
    ]
    return [{
        "name": f"{fmt}-{name}",
        "format": fmt,
        "blob": blob.hex(),
        "error_contains": needle,
    } for fmt, name, blob, needle in cases]


def build_vectors() -> dict[str, list[dict[str, Any]]]:
    """All five suites, freshly derived from the implementation."""
    return {
        "control": _build_control(),
        "quack": _build_quack(),
        "checkpoint": _build_checkpoint(),
        "negotiation": _build_negotiation(),
        "malformed": _build_malformed(),
    }


# -- executing vectors ---------------------------------------------------------

_DECODERS: dict[str, Callable[[bytes], Any]] = {
    "control": protocol.decode_control,
    "quack": wire.decode,
    "checkpoint": snapshot.decode_checkpoint,
}


def _check_control(vector: dict[str, Any]) -> list[str]:
    frame = bytes.fromhex(vector["frame"])
    message, version, features = protocol.parse_control(frame)
    problems = []
    if _message_to_dict(message) != vector["message"]:
        problems.append(f"decoded {_message_to_dict(message)}, "
                        f"vector pins {vector['message']}")
    if (version, features) != (vector["version"], vector["features"]):
        problems.append(f"frame header says v{version}/f{features:#04x}, "
                        f"vector pins v{vector['version']}")
    reencoded = protocol.encode_control(
        _message_from_dict(vector["message"]),
        version=vector["version"], features=vector["features"])
    if reencoded != frame:
        problems.append("re-encoding the pinned message differs from "
                        "the pinned frame")
    return problems


def _check_quack(vector: dict[str, Any]) -> list[str]:
    frame = bytes.fromhex(vector["frame"])
    problems = []
    if wire.frame_version(frame) != vector["version"]:
        problems.append(f"frame version {wire.frame_version(frame)} != "
                        f"pinned {vector['version']}")
    if wire.frame_features(frame) != vector["features"]:
        problems.append(f"frame features {wire.frame_features(frame):#04x} "
                        f"!= pinned {vector['features']:#04x}")
    decoded = wire.decode(frame, implicit_count=vector["implicit_count"])
    if decoded.count != vector["count"]:
        problems.append(f"decoded count {decoded.count} != "
                        f"pinned {vector['count']}")
    reencoded = wire.encode(decoded, include_count=vector["include_count"],
                            include_checksum=vector["include_checksum"],
                            version=vector["version"],
                            features=vector["features"])
    if reencoded != frame:
        problems.append("decode/re-encode round trip changed the bytes")
    return problems


def _check_checkpoint(vector: dict[str, Any]) -> list[str]:
    blob = bytes.fromhex(vector["blob"])
    decoded = snapshot.decode_checkpoint(blob)
    expected = snapshot.EmitterCheckpoint(
        flow_id=vector["flow_id"], epoch=vector["epoch"],
        taken_at=vector["taken_at"],
        frame=bytes.fromhex(vector["frame"]),
        wire_version=vector["wire_version"], features=vector["features"])
    problems = []
    if decoded != expected:
        problems.append(f"decoded {decoded}, vector pins {expected}")
    if snapshot.encode_checkpoint(expected) != blob:
        problems.append("re-encoding the pinned checkpoint differs from "
                        "the pinned blob")
    decoded.quack()  # the embedded frame must itself decode
    return problems


def _check_negotiation(vector: dict[str, Any]) -> list[str]:
    offer = _message_from_dict(vector["offer"])
    own = Capabilities(**{key: value
                          for key, value in vector["responder"].items()
                          if key != "interval_us"})
    problems = []
    if protocol.encode_control(offer, version=1).hex() \
            != vector["offer_frame"]:
        problems.append("canonical offer encoding differs from the "
                        "pinned offer_frame")
    if hello_transcript(offer).hex() != vector["transcript"]:
        problems.append("transcript hash differs from the pinned value")
    ack = respond(offer, own)
    pinned = None if vector["ack"] is None \
        else _message_from_dict(vector["ack"])
    if ack != pinned:
        problems.append(f"respond() produced {ack}, vector pins {pinned}")
    return problems


def _check_malformed(vector: dict[str, Any]) -> list[str]:
    decoder = _DECODERS[vector["format"]]
    blob = bytes.fromhex(vector["blob"])
    try:
        decoder(blob)
    except WireFormatError as exc:
        if vector["error_contains"] not in str(exc):
            return [f"raised {str(exc)!r}, which does not contain "
                    f"{vector['error_contains']!r}"]
        return []
    except Exception as exc:  # noqa: BLE001 -- conformance: wrong type
        return [f"raised {type(exc).__name__} instead of WireFormatError"]
    return ["decoded without raising WireFormatError"]


_CHECKERS: dict[str, Callable[[dict[str, Any]], list[str]]] = {
    "control": _check_control,
    "quack": _check_quack,
    "checkpoint": _check_checkpoint,
    "negotiation": _check_negotiation,
    "malformed": _check_malformed,
}


# -- file I/O ------------------------------------------------------------------

def _render(suite: list[dict[str, Any]]) -> str:
    return json.dumps(suite, indent=2, sort_keys=True) + "\n"


def generate(directory: str | Path = DEFAULT_DIR) -> list[Path]:
    """Write every suite to ``<directory>/<suite>.json``; return the paths."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, suite in build_vectors().items():
        path = base / f"{name}.json"
        path.write_text(_render(suite), encoding="utf-8")
        written.append(path)
    return written


def check(directory: str | Path = DEFAULT_DIR) -> list[str]:
    """Validate the checked-in vectors; return problems (empty = pass).

    Freshness: every suite file must exist and match a byte-for-byte
    regeneration.  Conformance: every vector is then *executed* against
    the real encoders and decoders, so the files cannot simply be
    regenerated into agreement with broken code.
    """
    base = Path(directory)
    problems = []
    fresh = build_vectors()
    for name in SUITES:
        path = base / f"{name}.json"
        if not path.exists():
            problems.append(f"{path}: missing (run 'repro vectors generate')")
            continue
        on_disk = path.read_text(encoding="utf-8")
        if on_disk != _render(fresh[name]):
            problems.append(f"{path}: stale -- regeneration differs "
                            f"(run 'repro vectors generate')")
        try:
            suite = json.loads(on_disk)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}: not valid JSON: {exc}")
            continue
        checker = _CHECKERS[name]
        for vector in suite:
            for problem in checker(vector):
                problems.append(f"{path}: {vector['name']}: {problem}")
    return problems
