"""The objects built once per datagram or once per quACK stay cheap.

Every object the transfer path allocates per packet sent, per ACK or per
quACK is slotted (no per-instance ``__dict__``) and not a frozen
dataclass: a frozen ``__init__`` stores each field through
``object.__setattr__``, which costs about twice a slotted store on every
datagram.  Nothing mutates these objects after they are built;
``tests/test_datagram_immutability.py`` holds that on whole runs.

``Packet.sealed`` builds its packet with one positional call, so it is
also checked against a keyword-built packet field by field: a field
inserted or reordered in ``Packet`` must not silently shift the sealed
arguments.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.netsim.packet import Packet, PacketKind
from repro.netsim.sched import EventHandle
from repro.quack.base import DecodeStatus
from repro.sidecar.consumer import LogEntry, QuackFeedback
from repro.sidecar.protocol import QuackMessage
from repro.transport.connection import SentPacketRecord
from repro.transport.frames import AckFrame, AckFrequencyFrame, DataFrame


INSTANCES = [
    Packet("a", "b", 1500),
    DataFrame(packet_number=1, offset=0, length=1460),
    AckFrame(largest_acked=3, ranges=((0, 3),)),
    AckFrequencyFrame(ack_every=10, max_delay_s=0.025),
    SentPacketRecord(packet_number=1, offset=0, length=1460,
                     size_bytes=1500, time_sent=0.0, identifier=7),
    EventHandle(0.0, 0, print, ()),
    QuackMessage(frame=b"\x01", flow_id="flow0"),
    LogEntry(7, 1, 0.0),
    QuackFeedback(status=DecodeStatus.OK),
]


@pytest.mark.parametrize("instance", INSTANCES,
                         ids=lambda obj: type(obj).__name__)
def test_per_datagram_object_is_slotted(instance):
    assert not hasattr(instance, "__dict__")


@pytest.mark.parametrize("instance", INSTANCES,
                         ids=lambda obj: type(obj).__name__)
def test_per_datagram_object_is_not_a_frozen_dataclass(instance):
    params = getattr(type(instance), "__dataclass_params__", None)
    assert params is None or not params.frozen


def test_sealed_matches_a_keyword_built_packet_field_by_field():
    # A distinct value for every argument, so that two swapped
    # positions cannot compare equal.
    payload = DataFrame(packet_number=9, offset=1460, length=100, fin=True)
    sealed = Packet.sealed("src", "dst", 140, key=b"key", payload=payload,
                           kind=PacketKind.ACK, identifier=0xBEEF,
                           flow_id="f1", created_at=2.5)
    by_keyword = Packet(src="src", dst="dst", size_bytes=140,
                        kind=PacketKind.ACK, identifier=0xBEEF,
                        flow_id="f1", created_at=2.5,
                        _protected=payload, _key=b"key")
    for spec in dataclasses.fields(Packet):
        if spec.name == "uid":
            continue  # drawn from the process-wide sequence
        assert getattr(sealed, spec.name) == getattr(by_keyword, spec.name), \
            spec.name
    assert sealed.protected_payload(b"key") is payload
    assert sealed.uid != by_keyword.uid
