"""Plausibility gates, the quarantine ledger, and the QUARANTINED rung.

The defense's contract: an honest emitter never trips a gate (counts
are monotone mod wraparound, never ahead of the sent log, sums always
decode), while each adversary family produces its typed signal; enough
signals quarantine the channel, and quarantine is terminal until a
clean-decode probation is served.
"""

import pytest

from repro.quack.base import DecodeStatus
from repro.sidecar.defense import (
    QUARANTINE_AFTER,
    SIGNAL_WINDOW_S,
    AdversarialSignal,
    DefenseConfig,
    PlausibilityValidator,
    QuarantineLedger,
    SignalKind,
    count_lead,
    count_regression,
    resume_implausibility,
)
from repro.sidecar.health import (
    QUARANTINE_PROBATION_S,
    HealthConfig,
    HealthMonitor,
    HealthState,
)

THRESHOLD = 16
COUNT_BITS = 16
MODULUS = 1 << COUNT_BITS


def make_validator(**overrides) -> PlausibilityValidator:
    config = DefenseConfig(**overrides)
    return PlausibilityValidator(config, THRESHOLD, COUNT_BITS, "flow0")


class TestCountArithmetic:
    """The one copy of the c-bit circle, the band and resume plausibility."""

    def test_lead_is_zero_when_level_or_behind(self):
        assert count_lead(10, 10, MODULUS) == 0
        assert count_lead(9, 10, MODULUS) == 0
        assert count_lead(12, 10, MODULUS) == 2

    def test_lead_wraps_and_half_the_circle_is_the_other_side(self):
        assert count_lead(3, MODULUS - 2, MODULUS) == 5
        assert count_lead(MODULUS // 2 - 1, 0, MODULUS) == MODULUS // 2 - 1
        assert count_lead(MODULUS // 2, 0, MODULUS) == 0

    @pytest.mark.parametrize("behind,expected", [
        (0, (0, False)),
        (5, (5, False)),
        (63, (63, False)),
        (64, (64, True)),
        (MODULUS // 2 - 1, (MODULUS // 2 - 1, True)),
        (MODULUS // 2, (0, False)),
    ])
    def test_regression_band(self, behind, expected):
        count = (1000 - behind) % MODULUS
        assert count_regression(1000, count, MODULUS, margin=64) == expected

    def test_no_reference_no_regression(self):
        assert count_regression(None, 7, MODULUS, margin=64) == (0, False)

    def test_resume_implausibility_names_the_evidence(self):
        assert resume_implausibility(2, 180, 2, 200, MODULUS) is None
        detail, observed, expected = resume_implausibility(
            5, 180, 2, 200, MODULUS)
        assert "never issued" in detail and (observed, expected) == (5, 2)
        detail, observed, expected = resume_implausibility(
            2, 230, 2, 200, MODULUS)
        assert "30 ahead" in detail and (observed, expected) == (230, 200)


class TestCountGates:
    def test_honest_monotone_stream_is_accepted(self):
        validator = make_validator()
        for step, count in enumerate((4, 8, 12, 16)):
            verdict = validator.check_snapshot(count, sent_count=20,
                                               now=0.01 * step)
            assert verdict.action == "accept"
            assert verdict.signal is None
            validator.note_accepted(count)
        assert validator.max_count == 16
        assert validator.stats.signals == 0

    def test_count_ahead_of_sent_log_is_signalled(self):
        validator = make_validator()
        verdict = validator.check_snapshot(30, sent_count=20, now=0.0)
        assert verdict.action == "drop"
        assert verdict.signal.kind is SignalKind.COUNT_AHEAD

    def test_small_regression_is_silent_reordering(self):
        validator = make_validator()
        validator.note_accepted(40)
        verdict = validator.check_snapshot(38, sent_count=50, now=0.0)
        assert verdict.action == "drop"
        assert verdict.signal is None
        assert validator.stats.stale_dropped == 1

    def test_regression_at_replay_margin_is_signalled(self):
        validator = make_validator()
        validator.note_accepted(200)
        behind = 200 - 4 * THRESHOLD  # exactly the default margin
        verdict = validator.check_snapshot(behind, sent_count=220, now=1.0)
        assert verdict.action == "regressed"
        assert verdict.signal.kind is SignalKind.COUNT_REGRESSION
        assert verdict.signal.observed == behind
        assert verdict.signal.expected == 200

    def test_wraparound_advance_is_accepted(self):
        validator = make_validator()
        validator.note_accepted(MODULUS - 2)
        # Mod-aware: 3 is 5 ahead of 65534, not 65531 behind.
        verdict = validator.check_snapshot(3, sent_count=3, now=0.0)
        assert verdict.action == "accept"
        validator.note_accepted(3)
        assert validator.max_count == 3

    def test_rewind_rebases_the_high_water_count(self):
        validator = make_validator()
        validator.note_accepted(500)
        validator.rewind(420)
        verdict = validator.check_snapshot(424, sent_count=600, now=0.0)
        assert verdict.action == "accept"


class TestRateGate:
    def test_flood_trips_rate_anomaly(self):
        validator = make_validator(rate_max=5)
        signals = []
        for arrival in range(10):
            verdict = validator.check_snapshot(4, sent_count=10,
                                               now=0.001 * arrival)
            if verdict.signal is not None:
                signals.append(verdict.signal.kind)
            else:
                validator.note_accepted(4)
        assert SignalKind.RATE_ANOMALY in signals

    def test_honest_cadence_never_trips(self):
        validator = make_validator(rate_max=5)
        for arrival in range(20):
            verdict = validator.check_snapshot(4, sent_count=10,
                                               now=0.02 * arrival)
            assert verdict.signal is None


class TestDecodeAndResumeGates:
    def test_inconsistent_decode_is_forged_evidence(self):
        validator = make_validator()
        signal = validator.classify_decode_failure(
            DecodeStatus.INCONSISTENT, num_missing=9, outstanding=4, now=2.0)
        assert signal.kind is SignalKind.FORGED_EVIDENCE

    def test_other_decode_failures_are_not_adversarial(self):
        validator = make_validator()
        for status in (DecodeStatus.OK, DecodeStatus.THRESHOLD_EXCEEDED):
            assert validator.classify_decode_failure(
                status, num_missing=0, outstanding=0, now=0.0) is None

    def test_resume_from_future_epoch_is_implausible(self):
        validator = make_validator()
        signal = validator.check_resume(5, 100, current_epoch=2,
                                        sent_count=200, now=0.0)
        assert signal.kind is SignalKind.IMPLAUSIBLE_RESUME

    def test_resume_count_ahead_of_sent_is_implausible(self):
        validator = make_validator()
        signal = validator.check_resume(0, 300, current_epoch=0,
                                        sent_count=200, now=0.0)
        assert signal.kind is SignalKind.IMPLAUSIBLE_RESUME

    def test_honest_resume_passes(self):
        validator = make_validator()
        assert validator.check_resume(0, 180, current_epoch=0,
                                      sent_count=200, now=0.0) is None


def signal_at(time: float,
              kind: SignalKind = SignalKind.FORGED_EVIDENCE) -> AdversarialSignal:
    return AdversarialSignal(time=time, kind=kind, flow_id="flow0",
                             detail="test")


class TestQuarantineLedger:
    def test_trips_after_threshold_inside_window(self):
        assert QUARANTINE_AFTER == 3
        ledger = QuarantineLedger()
        assert not ledger.record(signal_at(0.0))
        assert not ledger.record(signal_at(0.1))
        assert ledger.record(signal_at(0.2))
        assert ledger.quarantined
        assert ledger.quarantined_at == pytest.approx(0.2)

    def test_sparse_signals_outside_window_never_trip(self):
        ledger = QuarantineLedger()
        # At most two signals ever share a window.
        for index in range(5):
            assert not ledger.record(signal_at(0.6 * SIGNAL_WINDOW_S * index))
        assert not ledger.quarantined

    def test_verdict_is_sticky(self):
        ledger = QuarantineLedger()
        assert [ledger.record(signal_at(t)) for t in (0.0, 0.1, 0.2)] \
            == [False, False, True]
        # Further signals are ledgered as evidence but trip nothing new.
        assert not ledger.record(signal_at(0.3))
        assert ledger.quarantines == 1
        assert len(ledger.signals) == 4

    def test_judge_tells_the_ladder_what_the_ledger_decided(self):
        ledger = QuarantineLedger()
        for time in (0.0, 0.05):
            assert ledger.judge(signal_at(time), quarantined=False) \
                == (False, None)
        assert ledger.judge(signal_at(0.1), quarantined=False) \
            == (True, "quarantined: forged_evidence")
        # Still lying on the quarantined rung: restart its clean clock.
        assert ledger.judge(signal_at(0.2), quarantined=True) \
            == (False, "forged_evidence")
        # Re-admitted by the ladder: judged against the window afresh.
        assert ledger.judge(signal_at(0.3), quarantined=False) \
            == (False, None)
        assert not ledger.quarantined
        assert ledger.judge(signal_at(0.35), quarantined=False) \
            == (False, None)
        assert ledger.judge(signal_at(0.4), quarantined=False) \
            == (True, "quarantined: forged_evidence")
        assert ledger.quarantines == 2 and len(ledger.signals) == 7

    def test_a_readmitted_liar_is_quarantined_again(self):
        # The ledger and the ladder together, no simulator: three
        # signals quarantine, clean quACKs serve both probations, and
        # the next burst of lies must not find a HEALTHY ladder deaf.
        ledger = QuarantineLedger()
        monitor = HealthMonitor(HealthConfig(probation=0.1))

        def lie(now):
            tripped, reason = ledger.judge(signal_at(now),
                                           monitor.quarantined)
            if reason is not None:
                monitor.on_adversarial(now, reason)
            return tripped

        assert [lie(t) for t in (0.1, 0.2, 0.3)] == [False, False, True]
        served = 0.3 + QUARANTINE_PROBATION_S + 0.1 + 0.05
        for tick in range(31, round(served * 100)):
            monitor.on_good_quack(tick / 100)
        assert monitor.state is HealthState.HEALTHY
        assert [lie(served + i / 100) for i in range(10)].count(True) == 1
        assert monitor.state is HealthState.QUARANTINED
        assert ledger.quarantines == 2 and len(ledger.signals) == 13

    def test_by_kind_tally(self):
        ledger = QuarantineLedger()
        ledger.record(signal_at(0.0, SignalKind.COUNT_AHEAD))
        ledger.record(signal_at(6.0, SignalKind.COUNT_AHEAD))
        ledger.record(signal_at(12.0, SignalKind.FORGED_EVIDENCE))
        assert ledger.by_kind() == {"count_ahead": 2, "forged_evidence": 1}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DefenseConfig(rate_max=0)


class TestQuarantinedRung:
    def make_monitor(self) -> HealthMonitor:
        return HealthMonitor(HealthConfig(probation=0.25))

    def test_enter_from_any_rung(self):
        monitor = self.make_monitor()
        monitor.on_adversarial(1.0, "lying")
        assert monitor.state is HealthState.QUARANTINED
        assert not monitor.allow_receipts
        assert not monitor.allow_losses
        assert monitor.stats.quarantines == 1

    def test_probation_must_be_served_clean(self):
        monitor = self.make_monitor()
        monitor.on_adversarial(0.0)
        monitor.on_good_quack(1.0)  # starts the clean clock
        assert monitor.state is HealthState.QUARANTINED
        monitor.on_good_quack(1.5)  # not yet 1.0 s of clean decodes
        assert monitor.state is HealthState.QUARANTINED
        monitor.on_good_quack(2.1)
        assert monitor.state is HealthState.RECOVERING
        # The normal probation then leads back to HEALTHY.
        monitor.on_good_quack(2.5)
        assert monitor.state is HealthState.HEALTHY

    def test_fresh_violation_restarts_the_clean_clock(self):
        monitor = self.make_monitor()
        monitor.on_adversarial(0.0)
        monitor.on_good_quack(1.0)
        monitor.on_adversarial(1.5, "still lying")
        monitor.on_good_quack(2.0)  # clock restarted here, not at 1.0
        assert monitor.state is HealthState.QUARANTINED
        monitor.on_good_quack(3.1)
        assert monitor.state is HealthState.RECOVERING

    def test_failure_keeps_quarantine_and_clears_clock(self):
        monitor = self.make_monitor()
        monitor.on_adversarial(0.0)
        monitor.on_good_quack(1.0)
        monitor.on_failure(1.5)
        assert monitor.state is HealthState.QUARANTINED
        monitor.on_good_quack(2.0)
        monitor.on_good_quack(2.9)  # only 0.9 s since the restart
        assert monitor.state is HealthState.QUARANTINED

    def test_silence_is_no_pardon(self):
        monitor = self.make_monitor()
        monitor.on_adversarial(0.0)
        monitor.on_stale(10.0)
        assert monitor.state is HealthState.QUARANTINED
