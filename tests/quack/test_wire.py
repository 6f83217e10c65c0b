"""Tests for the quACK wire format (repro.quack.wire)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.quack import wire
from repro.quack.base import QuackScheme
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack, HashQuack

ids32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestPowerSumRoundTrip:
    @pytest.mark.parametrize("bits", [16, 24, 32, 64])
    def test_roundtrip_across_widths(self, bits):
        q = PowerSumQuack(threshold=5, bits=bits)
        q.insert_many([3, 2 ** (bits - 1), 17])
        decoded = wire.decode(wire.encode(q))
        assert decoded == q

    @given(values=st.lists(ids32, min_size=0, max_size=30),
           threshold=st.integers(min_value=1, max_value=12))
    @settings(max_examples=50)
    def test_roundtrip_random(self, values, threshold):
        q = PowerSumQuack(threshold=threshold)
        q.insert_many(values)
        assert wire.decode(wire.encode(q)) == q

    def test_frame_overhead_is_small(self):
        q = PowerSumQuack(threshold=20, bits=32, count_bits=16)
        frame = wire.encode(q)
        payload_bytes = q.wire_size_bits() // 8  # 82 (Table 2)
        assert payload_bytes == 82
        assert len(frame) - payload_bytes <= 16

    def test_count_omitted(self):
        """Section 4.3 (ACK reduction): 'we can omit c, which is always n'."""
        q = PowerSumQuack(threshold=4)
        q.insert_many([9, 9, 11])
        frame = wire.encode(q, include_count=False)
        full_frame = wire.encode(q, include_count=True)
        assert len(frame) == len(full_frame) - 2  # 16-bit count dropped
        restored = wire.decode(frame, implicit_count=3)
        assert restored == q

    def test_count_omitted_requires_context(self):
        q = PowerSumQuack(threshold=4)
        frame = wire.encode(q, include_count=False)
        with pytest.raises(WireFormatError):
            wire.decode(frame)

    def test_implicit_count_wraps_to_count_bits(self):
        q = PowerSumQuack(threshold=4, count_bits=8)
        for i in range(300):
            q.insert(i + 1)
        frame = wire.encode(q, include_count=False)
        restored = wire.decode(frame, implicit_count=300)
        assert restored.count == 300 % 256 == q.count


def reference_frame(quack, include_count):
    """The bare version-1 power-sum frame, one ``to_bytes`` per field."""
    parts = [wire.MAGIC,
             bytes((1, QuackScheme.POWER_SUM, int(include_count))),
             struct.pack(">BHB", quack.bits, quack.threshold,
                         quack.count_bits)]
    if include_count:
        parts.append(quack.count.to_bytes((quack.count_bits + 7) // 8, "big"))
    width = (quack.bits + 7) // 8
    parts.extend(value.to_bytes(width, "big") for value in quack.power_sums)
    return b"".join(parts)


class TestPowerSumLayout:
    """The ``t`` sums travel as one ``struct`` record where the width has
    a format code (1, 2, 4, 8 bytes) and one ``to_bytes`` each where it
    has none; the bytes are the same either way."""

    @given(bits=st.sampled_from((8, 12, 16, 24, 32, 64, 200)),
           threshold=st.sampled_from((1, 5, 20, 300)),
           values=st.lists(st.integers(min_value=0, max_value=2 ** 200 - 1),
                           max_size=6),
           include_count=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_frame_is_the_to_bytes_join_and_round_trips(
            self, bits, threshold, values, include_count):
        q = PowerSumQuack(threshold, bits)
        for value in values:
            q.insert(value % 2 ** bits)
        frame = wire.encode(q, include_count=include_count)
        assert frame == reference_frame(q, include_count)
        assert wire.decode(frame, implicit_count=q.count) == q

    @pytest.mark.parametrize("bits", [16, 24, 32, 64])
    @pytest.mark.parametrize("position", range(3))
    def test_first_non_residue_is_named(self, bits, position):
        """Every power-sum slot is checked, and of two offenders the
        error names the first, as the slot-by-slot loop did."""
        q = PowerSumQuack(threshold=4, bits=bits)
        q.insert_many([3, 17])
        bad = 2 ** bits - 1 - position      # >= p for every width here
        assert bad >= q.field.modulus
        frame = bytearray(wire.encode(q))
        width = (bits + 7) // 8
        sums_at = len(frame) - q.threshold * width
        for slot, value in ((position, bad), (3, 2 ** bits - 1)):
            at = sums_at + slot * width
            frame[at:at + width] = value.to_bytes(width, "big")
        with pytest.raises(WireFormatError,
                           match=f"power sum {bad} is not a residue"):
            wire.decode(bytes(frame))

    def test_layout_cache_is_bounded(self):
        """Both cache keys come off the wire: frames naming hundreds of
        thresholds, and the largest one a frame can name, leave a
        bounded number of layouts behind."""
        for threshold in (*range(1, 200), 0xFFFF):
            assert wire.decode(wire.encode(PowerSumQuack(threshold, 16,
                                                         count_bits=17))) \
                == PowerSumQuack(threshold, 16, count_bits=17)
        info = wire._sums_layout.cache_info()
        assert info.currsize <= info.maxsize <= 64


class TestEchoRoundTrip:
    def test_roundtrip(self):
        q = EchoQuack(bits=16)
        q.insert_many([1, 1, 500])
        decoded = wire.decode(wire.encode(q))
        assert isinstance(decoded, EchoQuack)
        assert decoded.received == q.received
        assert decoded.bits == 16

    def test_empty(self):
        decoded = wire.decode(wire.encode(EchoQuack()))
        assert decoded.count == 0


class TestHashRoundTrip:
    def test_roundtrip_decodes(self):
        q = HashQuack()
        q.insert_many([10, 30])
        restored = wire.decode(wire.encode(q))
        assert isinstance(restored, HashQuack)
        assert restored.digest() == q.digest()
        assert restored.count == 2
        result = restored.decode([10, 20, 30])
        assert result.ok and list(result.missing) == [20]


class TestMalformedFrames:
    def test_short_frame(self):
        with pytest.raises(WireFormatError):
            wire.decode(b"qK")

    def test_bad_magic(self):
        frame = bytearray(wire.encode(PowerSumQuack(2)))
        frame[0] = ord("X")
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(wire.encode(PowerSumQuack(2)))
        frame[2] = 99
        with pytest.raises(WireFormatError, match="version"):
            wire.decode(bytes(frame))

    def test_unknown_scheme(self):
        frame = bytearray(wire.encode(PowerSumQuack(2)))
        frame[3] = 77
        with pytest.raises(WireFormatError, match="scheme"):
            wire.decode(bytes(frame))

    def test_truncated_power_sums(self):
        frame = wire.encode(PowerSumQuack(4))
        with pytest.raises(WireFormatError):
            wire.decode(frame[:-3])

    def test_trailing_garbage(self):
        frame = wire.encode(PowerSumQuack(4))
        with pytest.raises(WireFormatError):
            wire.decode(frame + b"\x00")

    def test_non_residue_power_sum(self):
        q = PowerSumQuack(threshold=1, bits=32)
        frame = bytearray(wire.encode(q))
        frame[-4:] = b"\xff\xff\xff\xff"  # 2**32 - 1 >= p
        with pytest.raises(WireFormatError, match="residue"):
            wire.decode(bytes(frame))

    def test_truncated_echo(self):
        frame = wire.encode(EchoQuack())
        with pytest.raises(WireFormatError):
            wire.decode(frame[:-1] if len(frame) > 5 else frame + b"x")

    def test_unserializable_type(self):
        class FakeQuack:
            pass

        with pytest.raises(WireFormatError):
            wire.encode(FakeQuack())  # type: ignore[arg-type]


class TestFrameVersions:
    """Version 2 framing: the negotiated-feature byte, both directions."""

    def sample(self):
        quack = PowerSumQuack(threshold=4)
        quack.insert_many([11, 22, 33])
        return quack

    @pytest.mark.parametrize("checksum", [False, True])
    def test_v2_round_trips_every_scheme(self, checksum):
        # Echo/Hash quACKs compare by identity, so round trips are
        # asserted on the bytes: decode then re-encode reproduces the
        # frame exactly for every scheme.
        echo = EchoQuack()
        echo.insert_many([1, 2, 3])
        hashed = HashQuack()
        hashed.insert_many([1, 2, 3])
        for quack in (self.sample(), echo, hashed):
            frame = wire.encode(quack, include_checksum=checksum,
                                version=2, features=0x07)
            reencoded = wire.encode(wire.decode(frame),
                                    include_checksum=checksum,
                                    version=2, features=0x07)
            assert reencoded == frame

    def test_v2_costs_exactly_one_byte(self):
        quack = self.sample()
        v1 = wire.encode(quack, include_checksum=True)
        v2 = wire.encode(quack, include_checksum=True, version=2)
        assert len(v2) == len(v1) + 1

    def test_frame_version_and_features(self):
        quack = self.sample()
        v1 = wire.encode(quack, include_checksum=True)
        v2 = wire.encode(quack, include_checksum=True, version=2,
                         features=0x05)
        assert wire.frame_version(v1) == 1
        assert wire.frame_features(v1) == 0
        assert wire.frame_version(v2) == 2
        assert wire.frame_features(v2) == 0x05

    def test_frame_version_rejects_garbage(self):
        with pytest.raises(WireFormatError, match="magic"):
            wire.frame_version(b"xx\x01")
        with pytest.raises(WireFormatError):
            wire.frame_features(b"qK\x02\x01\x01")  # v2 but no feature byte

    def test_features_need_v2(self):
        with pytest.raises(WireFormatError, match="need"):
            wire.encode(self.sample(), features=0x01)

    def test_features_wider_than_a_byte_rejected(self):
        with pytest.raises(WireFormatError, match="exceed"):
            wire.encode(self.sample(), version=2, features=0x100)

    def test_unsupported_version_names_format_and_range(self):
        with pytest.raises(WireFormatError,
                           match=r"quack frame: unsupported version 3 "
                                 r"\(supported 1\.\.2\)"):
            wire.encode(self.sample(), version=3)

    def test_implicit_count_still_works_under_v2(self):
        quack = self.sample()
        frame = wire.encode(quack, include_count=False,
                            include_checksum=True, version=2)
        assert wire.decode(frame, implicit_count=3).count == 3
