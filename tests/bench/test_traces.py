"""Tests for trace-driven quACK sessions (repro.bench.traces)."""

import random

import pytest

from repro.bench.traces import (
    cbr_arrivals,
    run_session,
    survival_probability,
    synthesize_trace,
)
from repro.netsim.loss import BernoulliLoss, DeterministicLoss


class TestArrivalProcesses:
    def test_cbr_spacing(self):
        times = cbr_arrivals(5, 100.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)

    def test_validation(self):
        with pytest.raises(ValueError):
            cbr_arrivals(5, 0)


class TestSynthesizeTrace:
    def test_deterministic_per_seed(self):
        a = synthesize_trace(100, seed=7)
        b = synthesize_trace(100, seed=7)
        assert a == b
        assert a != synthesize_trace(100, seed=8)

    def test_loss_accounting(self):
        trace = synthesize_trace(
            10, loss=DeterministicLoss({0, 1, 2}), seed=1)
        assert trace.loss_count == 3
        assert trace.loss_rate == pytest.approx(0.3)


class TestRunSession:
    def test_clean_trace_confirms_everything_quacked(self):
        trace = synthesize_trace(500, seed=1)
        outcome = run_session(trace, threshold=10, quack_every=16)
        assert outcome.survived
        assert outcome.decode_failures == 0
        assert outcome.declared_lost == 0
        # All but the tail that never triggered a quACK is confirmed.
        assert outcome.confirmed >= 500 - 16

    def test_losses_declared_and_true(self):
        trace = synthesize_trace(
            1000, loss=BernoulliLoss(0.02, random.Random(5)), seed=5)
        outcome = run_session(trace, threshold=15, quack_every=32)
        assert outcome.survived
        assert outcome.declared_lost >= trace.loss_count - 32  # tail slack
        assert outcome.false_losses == 0

    def test_threshold_overflow_detected(self):
        # 30% loss, t=3, one quACK per 64 packets: hopeless.
        trace = synthesize_trace(
            500, loss=BernoulliLoss(0.3, random.Random(6)), seed=6)
        outcome = run_session(trace, threshold=3, quack_every=64)
        assert not outcome.survived
        assert outcome.threshold_exceeded

    def test_outstanding_bounded_by_cadence(self):
        trace = synthesize_trace(500, seed=2)
        outcome = run_session(trace, threshold=10, quack_every=8)
        assert outcome.max_outstanding <= 8 + 10


class TestSurvival:
    def test_bursty_loss_needs_more_headroom(self):
        """The Section 3.2 design point, quantified: at the same average
        loss rate, bursty channels overflow small thresholds."""
        tight_random = survival_probability(5, 0.02, "random", trials=8,
                                            n=1500)
        tight_bursty = survival_probability(5, 0.02, "bursty", trials=8,
                                            n=1500)
        roomy_bursty = survival_probability(25, 0.02, "bursty", trials=8,
                                            n=1500)
        assert tight_random == 1.0
        assert tight_bursty < 0.7
        assert roomy_bursty >= 0.9

    def test_unknown_burstiness(self):
        with pytest.raises(ValueError):
            survival_probability(5, 0.02, "sideways", trials=1)
