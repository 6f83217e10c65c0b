"""Tests for the receiver-side sidecar state (repro.sidecar.emitter)."""

import pytest

from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency


class TestObserve:
    def test_emits_per_packet_count(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(3))
        assert emitter.observe(1, 0.0) is None
        assert emitter.observe(2, 0.0) is None
        snapshot = emitter.observe(3, 0.0)
        assert snapshot is not None
        assert snapshot.count == 3

    def test_counter_resets_after_emission(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(2))
        emitter.observe(1, 0.0)
        assert emitter.observe(2, 0.0) is not None
        assert emitter.pending_packets == 0
        assert emitter.observe(3, 0.0) is None
        assert emitter.pending_packets == 1

    def test_interval_policy(self):
        emitter = QuackEmitter(threshold=4, policy=IntervalFrequency(0.050))
        assert emitter.observe(1, now=0.010) is None
        assert emitter.observe(2, now=0.051) is not None
        assert emitter.observe(3, now=0.060) is None

    def test_snapshot_is_independent_copy(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(1))
        snapshot = emitter.observe(5, 0.0)
        emitter.observe(6, 0.0)
        assert snapshot.count == 1  # unchanged by later observations

    def test_accumulator_is_cumulative_across_emissions(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(2))
        emitter.observe(1, 0.0)
        first = emitter.observe(2, 0.0)
        emitter.observe(3, 0.0)
        second = emitter.observe(4, 0.0)
        assert first.count == 2
        assert second.count == 4
        # The second snapshot contains everything the first did.
        delta = second - first
        assert delta.count == 2

    def test_unconditional_emit(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(100))
        emitter.observe(1, 0.0)
        snapshot = emitter.emit(1.0)
        assert snapshot.count == 1
        assert emitter.pending_packets == 0

    def test_stats(self):
        emitter = QuackEmitter(threshold=4, policy=PacketCountFrequency(2))
        for i in range(5):
            emitter.observe(i + 1, 0.0)
        assert emitter.stats.observed == 5
        assert emitter.stats.emitted == 2
        expected_bytes = 2 * ((emitter.quack.wire_size_bits() + 7) // 8)
        assert emitter.stats.emitted_bytes == expected_bytes

    def test_default_policy_every_other_packet(self):
        emitter = QuackEmitter(threshold=4)
        assert emitter.observe(1, 0.0) is None
        assert emitter.observe(2, 0.0) is not None


class TestPerFlowConstants:
    """What is fixed for a flow is computed once, not per packet."""

    @pytest.mark.parametrize("threshold,bits", [(1, 8), (4, 32), (20, 32),
                                                (7, 64)])
    def test_bank_bytes_is_the_accumulators_wire_size(self, threshold, bits):
        emitter = QuackEmitter(threshold, bits)
        assert emitter.bank_bytes \
            == (emitter.quack.wire_size_bits() + 7) // 8
        # A frame is metered at the size it has on the wire.
        snapshot = emitter.emit(0.0)
        assert emitter.stats.emitted_bytes \
            == (snapshot.wire_size_bits() + 7) // 8

    def test_emitters_without_a_policy_share_the_default(self):
        first, second = QuackEmitter(4), QuackEmitter(4)
        assert first.policy is second.policy
        assert isinstance(first.policy, PacketCountFrequency)
        assert first.policy.every_n == 2
        assert QuackEmitter(4, policy=PacketCountFrequency(2)).policy \
            is not first.policy
