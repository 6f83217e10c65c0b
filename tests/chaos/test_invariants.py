"""The chaos invariant suite: every injector, every invariant, one seed.

Acceptance criteria of the robustness milestone: under each built-in
fault injector the base transport still delivers all application data
end-to-end, no unhandled exception escapes, epochs converge, corruption
is always classified as a wire error, and the health/fault counters
match the injected faults.  ``SEED`` is fixed so CI replays the exact
same packet-level histories.
"""

import json
import pathlib

import pytest

from repro.chaos import (
    PLANS,
    ChaosSetup,
    MiddleboxCrash,
    format_result,
    run_chaos_transfer,
    run_plan,
)
from repro.netsim.faults import SIDECAR_KINDS, Blackout
from repro.sidecar.health import HealthConfig, HealthState

SEED = 1
REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def results():
    """Run every built-in plan once; the tests then interrogate them."""
    return {name: run_plan(name, seed=SEED) for name in PLANS}


class TestEveryPlanHolds:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_invariants_hold(self, results, name):
        result = results[name]
        assert result.violations() == [], format_result(result)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_all_bytes_delivered(self, results, name):
        result = results[name]
        assert result.completed
        assert result.bytes_received == result.total_bytes

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_epochs_converge(self, results, name):
        result = results[name]
        assert result.emitter_epoch == result.server_epoch


class TestCountersMatchInjectedFaults:
    def test_crash_restart_is_detected_and_healed(self, results):
        result = results["crash-restart"]
        assert result.crashes == 2
        assert result.emitter_counters["restarts"] == 2
        counters = result.server_counters
        # Each crash is noticed one way or the other: count regression
        # (same epoch) or stale-epoch snapshots (after a reset).
        assert counters["restarts_detected"] >= 1
        assert counters["resets_initiated"] >= 1
        assert result.emitter_counters["resets_applied"] >= 1

    def test_corruption_always_classified_as_wire_error(self, results):
        result = results["corruption"]
        assert result.faults_corrupted > 0
        # Every corrupted datagram that arrived was caught by a checksum
        # (quACK frames at the server, control frames at the emitter);
        # none was mis-decoded into session state.
        assert (result.wire_errors_seen
                + result.control_corruptions_seen) > 0
        assert result.server_counters["restarts_detected"] == 0

    def test_duplication_is_harmless(self, results):
        result = results["duplication"]
        assert result.faults_duplicated > 0
        counters = result.server_counters
        # A duplicated cumulative snapshot decodes to "nothing new".
        assert counters["decode_failures"] == 0
        assert counters["resets_initiated"] == 0

    def test_blackout_drops_only_sidecar_traffic(self, results):
        result = results["blackout"]
        assert result.faults_dropped > 0
        assert result.completed  # DATA/ACK were never touched

    def test_injector_stats_exposed_per_injector(self, results):
        stats = results["burst-loss"].injector_stats
        assert len(stats) == 1
        (only,) = stats.values()
        assert only.dropped == results["burst-loss"].faults_dropped


class TestBlackoutDegradationLadder:
    """The acceptance scenario: full sidecar blackout, then recovery."""

    HEALTH = HealthConfig(degrade_after=2, e2e_only_after=6,
                          stale_after=0.25, probation=0.25)

    @pytest.fixture(scope="class")
    def blackout_result(self):
        outage = Blackout([(0.3, 0.9)], kinds=SIDECAR_KINDS)
        setup = ChaosSetup(name="blackout",
                           faults_toward_client=outage,
                           faults_toward_server=outage)
        return run_chaos_transfer(setup, seed=SEED, health=self.HEALTH)

    def test_completes_despite_total_blackout(self, blackout_result):
        assert blackout_result.completed
        assert blackout_result.violations() == []

    def test_enters_e2e_only_during_blackout(self, blackout_result):
        drops = [t for t in blackout_result.health_transitions
                 if t.new is HealthState.E2E_ONLY]
        assert drops, "never fell back to end-to-end"
        assert 0.3 <= drops[0].time <= 0.9

    def test_reenters_healthy_within_one_probation_window(
            self, blackout_result):
        healthy = [t for t in blackout_result.health_transitions
                   if t.new is HealthState.HEALTHY]
        assert healthy, "never recovered"
        blackout_end = 0.9
        # Recovery = blackout end + quACK cadence + one probation window
        # (plus scheduler slack).
        deadline = blackout_end + self.HEALTH.probation + 0.15
        assert healthy[0].time <= deadline
        assert blackout_result.health_final is HealthState.HEALTHY


class TestHarnessPlumbing:
    def test_unknown_plan_is_an_error(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            run_plan("nope", seed=SEED)

    def test_result_carries_the_setup_it_ran(self, results):
        result = results["version-switch"]
        assert result.setup.name == "version-switch"
        assert result.setup.expect_no_resets

    def test_all_plans_sweep_lists_every_plan(self):
        spec = json.loads((REPO / "examples" / "sweeps"
                           / "chaos_all_plans.json").read_text())
        assert spec["grid"]["plan"] == sorted(PLANS)

    def test_format_result_mentions_the_essentials(self, results):
        text = format_result(results["crash-restart"])
        assert "crash-restart" in text
        assert "invariants: all held" in text
        assert "health" in text

    def test_custom_setup_with_crash_schedule(self):
        setup = ChaosSetup(name="one-crash",
                           crashes=MiddleboxCrash(times=(0.5,)))
        result = run_chaos_transfer(setup, seed=SEED,
                                    total_bytes=1460 * 300)
        assert result.crashes == 1
        assert result.violations() == []

    def test_seeded_runs_replay_identically(self):
        first = run_plan("corruption", seed=7, total_bytes=1460 * 200)
        second = run_plan("corruption", seed=7, total_bytes=1460 * 200)
        assert first.duration_s == second.duration_s
        assert first.server_counters == second.server_counters
        assert first.faults_corrupted == second.faults_corrupted
