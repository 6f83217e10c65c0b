"""Tests for packets and the E2E-encryption capability model."""

import pytest

from repro.errors import SimulationError
from repro.netsim.packet import Packet, PacketKind


class TestBasics:
    def test_uids_are_unique(self):
        packets = [Packet(src="a", dst="b", size_bytes=100) for _ in range(50)]
        uids = [p.uid for p in packets]
        assert len(set(uids)) == 50

    def test_defaults(self):
        p = Packet(src="a", dst="b", size_bytes=100)
        assert p.kind is PacketKind.DATA
        assert p.identifier is None
        assert p.payload is None

    def test_repr_with_identifier(self):
        p = Packet(src="a", dst="b", size_bytes=10, identifier=0xDEADBEEF)
        assert "0xdeadbeef" in repr(p)
        assert "a->b" in repr(p)

    def test_repr_without_identifier(self):
        assert "id=-" in repr(Packet(src="a", dst="b", size_bytes=10))


class TestSealedPayload:
    def test_holder_of_key_can_read(self):
        p = Packet.sealed(src="a", dst="b", size_bytes=10, key=b"secret",
                          payload={"seq": 7})
        assert p.protected_payload(b"secret") == {"seq": 7}

    def test_wrong_key_rejected(self):
        p = Packet.sealed(src="a", dst="b", size_bytes=10, key=b"secret",
                          payload="data")
        with pytest.raises(SimulationError, match="E2E-encrypted"):
            p.protected_payload(b"not-the-key")

    def test_unsealed_packet_has_no_payload(self):
        p = Packet(src="a", dst="b", size_bytes=10)
        with pytest.raises(SimulationError):
            p.protected_payload(b"any")

    def test_sealed_preserves_observable_fields(self):
        p = Packet.sealed(src="a", dst="b", size_bytes=1500, key=b"k",
                          payload="x", kind=PacketKind.ACK,
                          identifier=123, flow_id="f9", created_at=1.5)
        assert (p.src, p.dst, p.size_bytes) == ("a", "b", 1500)
        assert p.kind is PacketKind.ACK
        assert p.identifier == 123
        assert p.flow_id == "f9"
        assert p.created_at == 1.5


class TestPacketKind:
    def test_all_kinds_distinct(self):
        values = {k.value for k in PacketKind}
        assert len(values) == 4
