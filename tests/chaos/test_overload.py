"""The overload plans: capacity pressure on the shared flow table.

The invariant these scenarios all share (DESIGN.md §13): overload may
take assistance *away* from a flow -- rejection at admission, budget or
clamp eviction, load shedding -- but never corrupt it.  The primary
sender either keeps its quACKs or falls cleanly down the health ladder
to ``E2E_ONLY`` at goodput no worse than the unassisted baseline, with
zero spurious retransmits.
"""

import pytest

from repro.chaos.harness import (
    DEFAULT_TOTAL,
    PLANS,
    ChaosSetup,
    format_result,
    run_chaos_transfer,
    run_plan,
)
from repro.chaos.injectors import MiddleboxCrash
from repro.chaos.overload import BackgroundLoad, OverloadSpec
from repro.sidecar.flowtable import FlowTableTap
from repro.sidecar.health import HealthState

SEED = 1
#: Full-size transfers: the overload drivers fire between 0.1 s and
#: 1.1 s of simulated time, so the transfer must still be in flight
#: then for eviction/shedding to have anything to take away.
TOTAL = DEFAULT_TOTAL

OVERLOAD_PLANS = ("tenant-burst", "flow-churn-storm", "memory-clamp",
                  "shed-under-adversary")


@pytest.fixture(scope="module")
def results():
    return {name: run_plan(name, seed=SEED, total_bytes=TOTAL)
            for name in OVERLOAD_PLANS}


class TestOverloadPlansHold:
    def test_the_plan_set_is_complete(self):
        # ``repro chaos overload`` selects on the flag read off each
        # plan's setup; it must pick exactly the suite tested here.
        assert sorted(name for name, plan in PLANS.items()
                      if plan.overload) == sorted(OVERLOAD_PLANS)

    @pytest.mark.parametrize("name", OVERLOAD_PLANS)
    def test_invariants_hold(self, results, name):
        result = results[name]
        assert result.violations() == [], format_result(result)

    @pytest.mark.parametrize("name", OVERLOAD_PLANS)
    def test_goodput_at_least_unassisted(self, results, name):
        result = results[name]
        assert result.completed
        assert result.baseline_duration_s is not None
        assert result.duration_s <= (result.baseline_duration_s
                                     + result.baseline_slack_s + 1e-9)

    @pytest.mark.parametrize("name", OVERLOAD_PLANS)
    def test_no_spurious_retransmits(self, results, name):
        result = results[name]
        assert result.retransmitted_packets <= result.link_drops

    def test_tenant_burst_is_rejected_not_admitted(self, results):
        result = results["tenant-burst"]
        assert result.flowtable["flows_rejected"] >= 1
        burst = result.overload_drivers["TenantBurst"]
        assert burst["rejected"] > burst["admitted"]
        # Admission control never grew the table past its high water.
        assert result.flowtable["peak_flows"] <= 48

    def test_churn_storm_tears_down_cleanly(self, results):
        result = results["flow-churn-storm"]
        storm = result.overload_drivers["ChurnStorm"]
        assert storm["closed"] > 100
        assert result.flowtable["flows_closed"] == storm["closed"]

    def test_memory_clamp_evicts_the_primary(self, results):
        result = results["memory-clamp"]
        assert result.flowtable["flows_evicted"] >= 1
        # Assistance was removed, never corrupted: the sender walked
        # down to e2e-only and stayed there.
        assert result.health_final == HealthState.E2E_ONLY

    def test_shedding_spares_the_active_primary(self, results):
        result = results["shed-under-adversary"]
        assert result.flowtable["flows_shed"] >= 1
        # The liar got quarantined; shedding itself cost nothing.
        assert result.health_final == HealthState.QUARANTINED


class TestCrashInTheTable:
    """A crash wipes the tap's accumulator in the table too: the table
    folds into the fresh one, so the server sees the count regress."""

    @pytest.fixture(scope="class")
    def crashed(self):
        #: (after a crash, folded into the tap's own emitter), per packet.
        folds = []
        on_data = FlowTableTap.on_data

        def recording(tap, packet):
            if tap.assisted:
                folds.append((tap.restarts > 0,
                              tap._record.emitter is tap.emitter))
            on_data(tap, packet)

        setup = ChaosSetup(
            name="crash-in-table", crashes=MiddleboxCrash(times=(0.4,)),
            overload=OverloadSpec(drivers=[BackgroundLoad(seed=SEED)]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FlowTableTap, "on_data", recording)
            result = run_chaos_transfer(setup, seed=SEED, total_bytes=TOTAL)
        return result, folds

    def test_every_observation_after_the_crash_lands_in_the_tap(self,
                                                                 crashed):
        _, folds = crashed
        after = [same for restarted, same in folds if restarted]
        assert len(after) > 100
        assert all(after)

    def test_the_server_notices_the_restart(self, crashed):
        result, _ = crashed
        assert result.crashes == 1
        assert result.server_counters["restarts_detected"] >= 1

    def test_invariants_hold(self, crashed):
        result, _ = crashed
        assert result.completed
        assert result.violations() == [], format_result(result)
