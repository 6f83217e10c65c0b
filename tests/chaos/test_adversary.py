"""Adversarial plans: the defense invariants, end to end.

Acceptance criteria of the adversarial-defense milestone: under every
adversarial plan the transfer completes at no less than the unassisted
baseline's goodput, the lying sidecar lands in QUARANTINED, no
adversary-induced loss signal is applied after quarantine, and the
adversary never extracts a reset round-trip.  The checkpoint/restore
plan shows the flip side: an honest middlebox that crashes resumes
assistance within one handshake delivery instead of a reset.
"""

import pytest

from repro.chaos import PLANS, format_result, run_plan
from repro.sidecar.health import HealthState

SEED = 1

ADVERSARIAL = tuple(sorted(name for name, plan in PLANS.items()
                           if plan.adversarial))


@pytest.fixture(scope="module")
def results():
    return {name: run_plan(name, seed=SEED)
            for name in ADVERSARIAL + ("crash-restart", "crash-resume")}


class TestAdversarialPlans:
    def test_the_plan_set_is_complete(self):
        assert ADVERSARIAL == ("downgrade-rewrite", "downgrade-strip",
                               "equivocation", "forged-power-sum",
                               "lying-count", "replay",
                               "shed-under-adversary")

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_invariants_hold(self, results, name):
        result = results[name]
        assert result.violations() == [], format_result(result)

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversary_actually_tampered(self, results, name):
        # A plan that never forged anything tests nothing.
        assert results[name].faults_tampered > 0

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_lying_sidecar_is_quarantined(self, results, name):
        result = results[name]
        assert result.quarantined_at is not None
        assert result.server_counters["quarantines"] == 1
        assert any(hop.new is HealthState.QUARANTINED
                   for hop in result.health_transitions)

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_goodput_at_least_unassisted_baseline(self, results, name):
        # Negotiating plans get the handshake's link-serialization time
        # as slack -- that traffic shares the forward link with DATA and
        # the unassisted baseline never spends it.
        result = results[name]
        assert result.completed
        assert result.baseline_duration_s is not None
        allowed = result.baseline_duration_s + result.baseline_slack_s
        assert result.duration_s <= allowed + 1e-9
        assert result.goodput_bps \
            >= result.total_bytes * 8 / allowed - 1e-6

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_no_loss_applied_after_quarantine(self, results, name):
        result = results[name]
        applied = result.last_loss_applied_at
        assert applied is None or applied <= result.quarantined_at

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversary_extracts_no_resets(self, results, name):
        # Reset farming is a DoS amplifier: the defense must heal
        # without ever granting the adversary a reset round-trip.
        result = results[name]
        assert result.server_counters["resets_initiated"] == 0
        assert result.emitter_counters["resets_applied"] == 0

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_signals_were_ledgered(self, results, name):
        result = results[name]
        assert sum(result.signals_by_kind.values()) >= 3
        assert result.server_counters["adversarial_signals"] >= 3


class TestCheckpointResume:
    def test_every_crash_resumes_without_reset(self, results):
        result = results["crash-resume"]
        assert result.violations() == [], format_result(result)
        assert result.crashes == 2
        assert result.emitter_counters["checkpoint_restores"] == 2
        assert result.server_counters["resumes_accepted"] == 2
        assert result.server_counters["resets_initiated"] == 0
        assert result.server_counters["decode_failures"] == 0

    def test_honest_middlebox_is_never_quarantined(self, results):
        result = results["crash-resume"]
        assert result.quarantined_at is None
        assert result.server_counters["quarantines"] == 0
        assert result.server_counters["adversarial_signals"] == 0

    def test_resume_matches_restart_goodput(self, results):
        # The resume path must never be slower than the reset path it
        # replaces, and both complete the transfer.
        restart = results["crash-restart"]
        resume = results["crash-resume"]
        assert resume.completed and restart.completed
        assert resume.duration_s <= restart.duration_s + 1e-9

    def test_restart_heals_by_reset_but_resume_does_not(self, results):
        # The contrast that makes the dwell-time comparison meaningful.
        assert results["crash-restart"].server_counters[
            "resets_initiated"] >= 1
        assert results["crash-resume"].server_counters[
            "resets_initiated"] == 0


class TestResumeTraceAnalytics:
    # The chaos-default transfer size, so both crash windows (0.4 s and
    # 0.9 s) land mid-transfer; run_traced's smaller default completes
    # before the first crash and the comparison would be vacuous.
    TOTAL_BYTES = 1460 * 600

    @pytest.fixture(scope="class")
    def analyses(self):
        from repro.obs.runner import run_traced

        return {plan: run_traced(plan, seed=SEED,
                                 total_bytes=self.TOTAL_BYTES).analysis
                for plan in ("crash-restart", "crash-resume")}

    @staticmethod
    def _completion(analysis) -> float:
        return max(time for time, _bytes in analysis.completed.values())

    @classmethod
    def _off_healthy_dwell(cls, analysis) -> float:
        """Seconds spent off the HEALTHY rung before transfer completion.

        Clipped at completion time: once the transfer is done quACKs
        legitimately stop, so the later staleness walk down the ladder
        is an artifact of the drain, not assistance downtime.
        """
        done = cls._completion(analysis)
        dwell, state, since = 0.0, HealthState.HEALTHY.value, 0.0
        for time, _old, new, _reason in analysis.transitions:
            if time > done:
                break
            if state != HealthState.HEALTHY.value:
                dwell += time - since
            state, since = new, time
        if state != HealthState.HEALTHY.value:
            dwell += done - since
        return dwell

    @classmethod
    def _worst_assistance_outage(cls, analysis) -> float:
        """Longest gap between successful decodes during the transfer."""
        done = cls._completion(analysis)
        ok_times = [time for time, status, _missing in analysis.decodes
                    if status == "ok" and time <= done]
        return max(later - earlier
                   for earlier, later in zip(ok_times, ok_times[1:]))

    def test_resume_verdict_lands_within_one_rtt(self, analyses):
        # Sidecar-hop RTT in the chaos topology: 2 * 5 ms one-way delay.
        latencies = analyses["crash-resume"].resume_latencies()
        assert len(latencies) >= 1
        assert all(latency <= 0.010 + 1e-9 for latency in latencies)

    def test_resume_avoids_the_reset_downtime(self, analyses):
        restart = analyses["crash-restart"]
        resume = analyses["crash-resume"]
        assert restart.count("sidecar_resets_total") >= 1
        assert resume.count("sidecar_resets_total") == 0
        assert resume.count("sidecar_resumes_total", phase="accepted") >= 2

    def test_resume_spends_less_time_off_healthy(self, analyses):
        # The dwell-time comparison: the reset path knocks the health
        # ladder off HEALTHY for a measurable span; the resume path does
        # not get caught lying even once.
        restart_dwell = self._off_healthy_dwell(analyses["crash-restart"])
        resume_dwell = self._off_healthy_dwell(analyses["crash-resume"])
        assert restart_dwell > 0.0
        assert resume_dwell <= restart_dwell + 1e-9

    def test_resume_shrinks_the_assistance_outage(self, analyses):
        # Worst decode-to-decode gap: the reset path pauses for the
        # handshake plus settle windows; the resume path restores
        # assistance within roughly one quACK cadence of the crash.
        restart_gap = self._worst_assistance_outage(analyses["crash-restart"])
        resume_gap = self._worst_assistance_outage(analyses["crash-resume"])
        assert resume_gap < restart_gap
        assert resume_gap <= 0.05

    def test_gap_packets_reconcile_without_spurious_retransmits(
            self, analyses):
        resume = analyses["crash-resume"]
        assert resume.count("sidecar_checkpoints_total") > 0
        assert resume.gap_reconciled > 0
        # Every retransmission (either cause) is backed by a real
        # bottleneck-queue drop: the checkpoint gap produced none.
        for plan in ("crash-restart", "crash-resume"):
            assert len(analyses[plan].spans.retransmissions()) \
                == analyses[plan].count("netsim_link_dropped_total") > 0
        # And no quACK-attributed retransmission touches a packet sent
        # in the checkpoint window just before a crash -- those are the
        # gap packets, confirmed pre-crash and reconciled, not lost.
        crash_times = (0.4, 0.9)
        quack_repairs = [entry for span in resume.spans.spans.values()
                         for entry in span.stages
                         if entry.stage == "sent"
                         and entry.detail.get("cause") == "quack"]
        assert quack_repairs
        for record in quack_repairs:
            sent_at = record.time - record.detail["latency"]
            assert not any(crash - 0.05 <= sent_at <= crash
                           for crash in crash_times), record
