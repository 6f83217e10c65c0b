"""Tests for quACK frequency policies (repro.sidecar.frequency)."""

import pytest

from repro.sidecar.frequency import (
    MAX_EVERY,
    MIN_EVERY,
    AdaptiveFrequency,
    IntervalFrequency,
    PacketCountFrequency,
    retransmission_cadence,
)


class TestIntervalFrequency:
    def test_emits_once_per_interval(self):
        policy = IntervalFrequency(0.060)
        assert not policy.on_packet(5, now=0.030, last_emit=0.0)
        assert policy.on_packet(5, now=0.060, last_emit=0.0)
        assert policy.on_packet(1, now=0.500, last_emit=0.4)

    def test_interval_hint(self):
        assert IntervalFrequency(0.1).interval_hint() == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalFrequency(0)

    def test_repr(self):
        assert "60.0 ms" in repr(IntervalFrequency(0.060))


class TestPacketCountFrequency:
    def test_every_n(self):
        policy = PacketCountFrequency(32)
        assert not policy.on_packet(31, 0.0, 0.0)
        assert policy.on_packet(32, 0.0, 0.0)

    def test_every_packet(self):
        assert PacketCountFrequency(1).on_packet(1, 0.0, 0.0)

    def test_no_interval_hint(self):
        assert PacketCountFrequency(2).interval_hint() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketCountFrequency(0)


class TestAdaptiveFrequency:
    def test_behaves_like_packet_count(self):
        policy = AdaptiveFrequency(initial_every=16)
        assert not policy.on_packet(15, 0.0, 0.0)
        assert policy.on_packet(16, 0.0, 0.0)

    def test_retune_targets_constant_missing(self):
        # Section 4.3: target ~t missing per quACK at the observed loss.
        assert retransmission_cadence(0.10, target_missing=10) == 100
        assert retransmission_cadence(0.5, target_missing=10) == 20
        assert retransmission_cadence(0.10, target_missing=20) == 200
        assert retransmission_cadence(1.0, target_missing=10) == 10

    def test_retune_clamps(self):
        assert retransmission_cadence(0.9, 10) == 11  # 10/0.9
        assert retransmission_cadence(0.99, 10) == 10
        # Nearly lossless: slowest cadence.
        assert retransmission_cadence(1e-9, 10) == MAX_EVERY == 512
        assert retransmission_cadence(0.0, 10) == MAX_EVERY
        # Clamped up to the fastest.
        assert retransmission_cadence(0.9, 1) == MIN_EVERY == 2

    def test_configure_adopts_within_the_policys_own_bounds(self):
        policy = AdaptiveFrequency(initial_every=16)
        policy.configure(32)
        assert policy.every_n == 32
        policy.configure(10_000)
        assert policy.every_n == MAX_EVERY
        policy.configure(1)
        assert policy.every_n == MIN_EVERY

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFrequency(initial_every=MIN_EVERY - 1)
        with pytest.raises(ValueError):
            AdaptiveFrequency(initial_every=MAX_EVERY + 1)
