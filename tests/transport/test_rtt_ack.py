"""Tests for RTT estimation and ACK tracking/frequency."""

import pytest

from repro.transport.ack import (
    MAX_ACK_RANGES,
    AckFrequencyPolicy,
    AckTracker,
)
from repro.transport.rtt import GRANULARITY, RttEstimator


class TestRttEstimator:
    def test_first_sample_initializes(self):
        rtt = RttEstimator()
        rtt.update(0.050)
        assert rtt.srtt == pytest.approx(0.050)
        assert rtt.rttvar == pytest.approx(0.025)
        assert rtt.min_rtt == pytest.approx(0.050)
        assert rtt.has_sample

    def test_ewma_smoothing(self):
        rtt = RttEstimator()
        rtt.update(0.100)
        rtt.update(0.200)
        assert rtt.srtt == pytest.approx(0.875 * 0.100 + 0.125 * 0.200)
        assert rtt.latest == 0.200

    def test_min_rtt_tracks_minimum(self):
        rtt = RttEstimator()
        for sample in (0.08, 0.03, 0.12):
            rtt.update(sample)
        assert rtt.min_rtt == pytest.approx(0.03)

    def test_nonpositive_samples_ignored(self):
        rtt = RttEstimator()
        rtt.update(0.0)
        rtt.update(-1.0)
        assert not rtt.has_sample

    def test_ack_delay_subtracted_only_above_min(self):
        rtt = RttEstimator()
        rtt.update(0.050)
        rtt.update(0.080, ack_delay=0.020)  # 0.060 >= min: adjusted
        expected = 0.875 * 0.050 + 0.125 * 0.060
        assert rtt.srtt == pytest.approx(expected)

    def test_ack_delay_not_subtracted_below_min(self):
        rtt = RttEstimator()
        rtt.update(0.050)
        before = rtt.srtt
        rtt.update(0.051, ack_delay=0.030)  # 0.021 < min: keep raw
        expected = 0.875 * before + 0.125 * 0.051
        assert rtt.srtt == pytest.approx(expected)

    def test_pto_interval_and_backoff(self):
        rtt = RttEstimator()
        rtt.update(0.040)
        base = rtt.pto_interval(max_ack_delay=0.025)
        assert base == pytest.approx(rtt.srtt + max(4 * rtt.rttvar,
                                                    GRANULARITY) + 0.025)
        assert rtt.pto_interval(0.025, backoff_exponent=2) == \
            pytest.approx(base * 4)

    def test_loss_time_threshold(self):
        rtt = RttEstimator()
        rtt.update(0.040)
        rtt.update(0.080)
        assert rtt.loss_time_threshold() == pytest.approx(
            9 / 8 * max(rtt.srtt, 0.080))

    def test_repr(self):
        assert "srtt" in repr(RttEstimator())


class TestAckTracker:
    def test_records_and_detects_duplicates(self):
        tracker = AckTracker()
        assert tracker.on_packet(0)
        assert tracker.on_packet(1)
        assert not tracker.on_packet(0)
        assert tracker.largest == 1
        assert tracker.pending_ack_count == 2

    def test_ranges_most_recent_first(self):
        tracker = AckTracker()
        for pn in (0, 1, 5, 6, 10):
            tracker.on_packet(pn)
        assert tracker.ack_ranges() == ((10, 10), (5, 6), (0, 1))

    def test_range_truncation(self):
        tracker = AckTracker()
        for pn in range(0, 2 * MAX_ACK_RANGES + 4, 2):
            tracker.on_packet(pn)
        ranges = tracker.ack_ranges()
        assert len(ranges) == MAX_ACK_RANGES
        assert ranges[:2] == ((2 * MAX_ACK_RANGES + 2,) * 2,
                              (2 * MAX_ACK_RANGES,) * 2)

    def test_mark_acked_resets_pending(self):
        tracker = AckTracker()
        tracker.on_packet(0)
        tracker.mark_acked()
        assert tracker.pending_ack_count == 0
        tracker.on_packet(1)
        assert tracker.pending_ack_count == 1

    def test_empty(self):
        tracker = AckTracker()
        assert tracker.largest is None
        assert tracker.ack_ranges() == ()


class TestAckFrequencyPolicy:
    def test_default_acks_every_other(self):
        policy = AckFrequencyPolicy()
        assert not policy.should_ack_immediately(1)
        assert policy.should_ack_immediately(2)

    def test_out_of_order_acks_immediately(self):
        policy = AckFrequencyPolicy()
        policy.update(32, 0.025)
        assert policy.should_ack_immediately(1, out_of_order=True)

    def test_update(self):
        policy = AckFrequencyPolicy()
        policy.update(32, 0.05)
        assert policy.ack_every == 32
        assert policy.max_delay_s == 0.05
        assert not policy.should_ack_immediately(31)
        assert policy.should_ack_immediately(32)

    def test_validation(self):
        with pytest.raises(ValueError):
            AckFrequencyPolicy().update(0, 0.025)
        with pytest.raises(ValueError):
            AckFrequencyPolicy().update(2, -1)

    def test_repr(self):
        assert "every=2" in repr(AckFrequencyPolicy())
