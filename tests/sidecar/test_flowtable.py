"""Tests for the multi-tenant flow table (DESIGN.md §13)."""

import pytest

from repro.netsim.core import Simulator
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.flowtable import (
    IDLE_AFTER_S,
    LOW_TRAFFIC_OBSERVED,
    FlowTable,
    FlowTableConfig,
    run_scale,
)


@pytest.fixture(autouse=True)
def _ledger_clean():
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()
    yield
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()


def make_table(**overrides) -> tuple[Simulator, FlowTable]:
    sim = Simulator()
    config = FlowTableConfig(**overrides)
    return sim, FlowTable(sim, config)


#: Resident bank of one default-config emitter (threshold=4, bits=32).
BANK = 18


class TestConfigValidation:
    def test_defaults_are_valid(self):
        FlowTableConfig()

    @pytest.mark.parametrize("kwargs", [
        {"max_flows": 0},
        {"tenant_budget_bytes": 0},
        {"shed_low_water": 0.0},
        {"shed_low_water": 0.95},
        {"tenant_budget_bytes": -1},
        {"batch_interval_s": 0.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlowTableConfig(**kwargs)


class TestAdmission:
    def test_admit_is_idempotent_per_key(self):
        _, table = make_table()
        first = table.admit("t0", "f0")
        again = table.admit("t0", "f0")
        assert first is again
        assert table.stats.flows_admitted == 1

    def test_global_high_water_rejects(self):
        _, table = make_table(max_flows=2, tenant_budget_bytes=10_000)
        assert table.admit("t0", "f0") is not None
        assert table.admit("t0", "f1") is not None
        assert table.admit("t0", "f2") is None
        assert table.stats.flows_rejected == 1
        assert table.flows == 2

    def test_bank_accounting_tracks_admissions(self):
        _, table = make_table()
        table.admit("t0", "f0")
        table.admit("t0", "f1")
        table.admit("t1", "f0")
        assert table.tenant_bank_bytes("t0") == 2 * BANK
        assert table.tenant_bank_bytes("t1") == BANK
        assert table.total_bank_bytes() == 3 * BANK

    def test_swapped_emitter_is_folded_and_accounted(self):
        # A reset, crash or renegotiation hands the record a fresh
        # accumulator, possibly of another size.
        _, table = make_table()
        record = table.admit("t0", "f0")
        table.admit("t0", "f1")
        table.observe(record, 7)
        wider = QuackEmitter(8, 32)
        table.swap_emitter(record, wider)
        table.observe(record, 9)
        assert record.emitter is wider and wider.flow == "t0/f0"
        assert wider.quack.count == 1
        assert record.bank_bytes == (wider.quack.wire_size_bits() + 7) // 8
        assert record.bank_bytes > BANK
        assert table.tenant_bank_bytes("t0") == record.bank_bytes + BANK
        assert table.total_bank_bytes() == record.bank_bytes + BANK

    def test_newcomer_bigger_than_budget_rejected(self):
        _, table = make_table(tenant_budget_bytes=BANK - 1)
        assert table.admit("t0", "f0") is None
        assert table.stats.flows_rejected == 1


class TestBudgetEviction:
    def test_over_budget_evicts_tenant_lru(self):
        # Budget fits two banks; the third admission evicts the least
        # recently *active* flow, not the oldest admission.
        sim, table = make_table(tenant_budget_bytes=2 * BANK + 2)
        a = table.admit("t0", "a")
        b = table.admit("t0", "b")
        sim.schedule(0.001, lambda: table.observe(a, 7))
        sim.schedule(0.002, lambda: table.admit("t0", "c"))
        sim.run(until=0.003)
        assert not b.live
        assert a.live
        assert table.get("t0", "c") is not None
        assert table.stats.flows_evicted == 1
        assert table.tenant_bank_bytes("t0") == 2 * BANK

    def test_one_tenants_burst_never_costs_another(self):
        _, table = make_table(tenant_budget_bytes=2 * BANK + 2,
                              max_flows=1000)
        other = table.admit("quiet", "f0")
        for index in range(20):
            table.admit("noisy", f"f{index}")
        assert other.live
        assert table.tenant_bank_bytes("quiet") == BANK
        assert table.tenant_bank_bytes("noisy") <= 2 * BANK + 2

    def test_eviction_fires_callback_with_reason(self):
        reasons = []
        _, table = make_table(tenant_budget_bytes=BANK + 1)
        table.admit("t0", "a", on_evict=reasons.append)
        table.admit("t0", "b")
        assert reasons == ["budget"]


class TestClamp:
    def test_clamp_evicts_immediately_and_restores(self):
        _, table = make_table(tenant_budget_bytes=10 * BANK)
        for index in range(3):
            table.admit("t0", f"f{index}")
        evicted = table.clamp_tenant("t0", BANK + 1)
        assert evicted == 2
        assert table.stats.flows_evicted == 2
        assert table.flows == 1
        # A clamp back to the configured budget: admissions work again.
        assert table.clamp_tenant("t0", 10 * BANK) == 0
        assert table.admit("t0", "fresh") is not None

    def test_clamp_to_zero_removes_every_flow(self):
        _, table = make_table()
        for index in range(4):
            table.admit("t0", f"f{index}")
        assert table.clamp_tenant("t0", 0) == 4
        assert table.flows == 0


class TestShedding:
    def test_shed_order_idle_then_low_traffic_then_active(self):
        # 10 flows above the high water (9); shedding stops at the low
        # water (6) after taking the idle pair, then the low-traffic
        # pair -- the active flows survive.
        sim, table = make_table(max_flows=10, shed_low_water=0.6,
                                tenant_budget_bytes=10_000)
        records = [table.admit("t0", f"f{index}") for index in range(2)]

        def drive() -> None:   # after the first pair has gone idle
            records.extend(table.admit("t0", f"f{index}")
                           for index in range(2, 10))
            for record in records[2:4]:
                table.observe(record, 7)
            for record in records[4:]:
                for identifier in range(1, LOW_TRAFFIC_OBSERVED + 1):
                    table.observe(record, identifier)

        sim.schedule(IDLE_AFTER_S + 0.002, drive)
        sim.run(until=IDLE_AFTER_S + 0.006)
        assert table.flows == 6
        assert table.stats.flows_shed == 4
        assert [record.live for record in records] == [False] * 4 + [True] * 6

    def test_no_shedding_below_high_water(self):
        sim, table = make_table(max_flows=10, shed_low_water=0.5,
                                tenant_budget_bytes=10_000)
        for index in range(9):
            table.admit("t0", f"f{index}")
        sim.run(until=0.02)
        assert table.stats.flows_shed == 0
        assert table.flows == 9


class TestBatching:
    def test_emission_waits_for_the_shared_timer(self):
        sim, table = make_table()
        frames = []
        record = table.admit("t0", "f0",
                             on_emit=lambda snap, now: frames.append(now))

        def feed() -> None:
            table.observe(record, 1)
            table.observe(record, 2)  # due at 0.002 under the default

        sim.schedule(0.002, feed)
        sim.run(until=0.004)
        assert frames == []  # never inline: waits for the 0.005 sweep
        sim.run(until=0.006)
        assert frames == [0.005]
        assert table.stats.batches == 1
        assert table.stats.frames_batched == 1

    def test_latency_is_coalescing_delay(self):
        sim, table = make_table()
        record = table.admit("t0", "f0")
        sim.schedule(0.002, lambda: (table.observe(record, 1),
                                     table.observe(record, 2)))
        sim.run(until=0.006)
        stats = table.stats_dict()
        assert stats["emissions"] == 1
        assert stats["emission_latency_p99_s"] == pytest.approx(0.003)

    def test_observe_after_eviction_is_a_noop(self):
        _, table = make_table()
        record = table.admit("t0", "f0")
        assert table.observe(record, 1)
        assert table.close_flow(record)
        assert not table.observe(record, 2)
        assert not table.close_flow(record)

    def test_close_stops_the_batch_timer(self):
        sim, table = make_table()
        record = table.admit("t0", "f0")
        table.observe(record, 1)
        table.observe(record, 2)
        table.close()
        before = table.stats.batches
        sim.run(until=0.1)
        assert table.stats.batches == before


class TestLedgerIntegration:
    def test_eviction_forgets_the_ledger_entry(self):
        FLOW_ACCOUNTS.arm()
        _, table = make_table()
        record = table.admit("t0", "f0")
        table.observe(record, 1)
        assert FLOW_ACCOUNTS.flows == 1
        assert "t0/f0" in FLOW_ACCOUNTS.snapshot()["flows"]
        table.close_flow(record)
        assert FLOW_ACCOUNTS.flows == 0
        assert FLOW_ACCOUNTS.evicted_flows == 1


class TestRunScale:
    @pytest.mark.parametrize("parameter, value", [
        ("flows", 0), ("tenants", 0), ("packets_per_flow", -1),
        ("churn_rate", -1.0), ("duration_s", 0.0), ("duration_s", -1.0),
        ("tick_s", 0.0), ("tick_s", -0.01)])
    def test_validates_inputs(self, parameter, value):
        # Each would otherwise run: a division by zero, a schedule into
        # the past, one tick of a zero-length run, or no churn at all.
        with pytest.raises(ValueError, match=f"^{parameter} must be"):
            run_scale(**{"flows": 10, parameter: value})

    def test_deterministic_across_runs(self):
        first = run_scale(flows=200, tenants=4, churn_rate=0.5,
                          duration_s=0.3, seed=7, account=True)
        second = run_scale(flows=200, tenants=4, churn_rate=0.5,
                           duration_s=0.3, seed=7, account=True)
        assert first == second

    def test_quick_population_outcomes_are_pinned(self):
        # Deterministic virtual-time outcomes: any movement is a
        # behaviour change, to be made on purpose and re-pinned.
        result = run_scale(flows=5000, tenants=8, packets_per_flow=4,
                           churn_rate=0.2, duration_s=1.0, seed=1,
                           account=True)
        assert result["ledger_bank_bytes"] / result["ledger_flows"] == 18
        assert result["peak_bank_bytes"] == 90_000
        assert result["emission_latency_p99_s"] == pytest.approx(
            0.0048, rel=1e-12)
        assert result["flows_evicted"] == 0
        assert result["flows_shed"] == 0

    @pytest.mark.parametrize("kwargs, pinned", [
        (dict(flows=2000, tenant_budget_bytes=3600),
         dict(flows_evicted=406, flows_closed=400, observations=5863,
              frames_batched=2308, batches=77, peak_bank_bytes=28_800,
              ledger_bank_bytes=27_738)),
        # The flowtable-evict benchmark workload's own input.
        (dict(flows=20_000, tenant_budget_bytes=36_000),
         dict(flows_evicted=4006, observations=58_664,
              frames_batched=22_842, batches=75, flows=15_994,
              ledger_flows=15_497)),
    ], ids=["2000-flows", "benchmark-input"])
    def test_budget_eviction_outcomes_are_pinned(self, kwargs, pinned):
        # Taken with the victim chosen by a scan of the tenant
        # (tests/sidecar/flowtable_oracle.py): which flows a tenant at
        # 0.4x its default budget loses decides every number here.
        result = run_scale(tenants=8, packets_per_flow=4, churn_rate=0.2,
                           duration_s=1.0, seed=1, account=True, **kwargs)
        assert {key: result[key] for key in pinned} == pinned

    @pytest.mark.parametrize("churn_rate", [0.0, 0.5])
    def test_every_flow_rejected_is_a_result_not_a_crash(self, churn_rate):
        # A budget under one bank admits nothing; the driver used to
        # divide by its empty record list on the first tick.
        result = run_scale(flows=10, tenant_budget_bytes=1,
                           churn_rate=churn_rate)
        assert result["flows_rejected"] == 10
        assert result["flows_admitted"] == 0
        assert result["observations"] == 0

    def test_churn_closes_and_forgets(self):
        result = run_scale(flows=100, tenants=4, churn_rate=1.0,
                           duration_s=0.5, seed=1, account=True)
        assert result["flows_closed"] > 0
        assert result["ledger_evicted_flows"] == result["flows_closed"]

    def test_overload_rejects_past_max_flows(self):
        result = run_scale(flows=100, max_flows=50, seed=1)
        assert result["flows_admitted"] == 50
        assert result["flows_rejected"] == 50

    def test_100k_flows_stay_within_the_memory_budget(self):
        # The headline capacity claim: a 100k-flow population runs to
        # completion with the resident bank memory -- measured by the
        # same FLOW_ACCOUNTS.total_bank_bytes() the ops ledger reports
        # -- inside the configured per-tenant budgets.
        tenants = 8
        result = run_scale(flows=100_000, tenants=tenants,
                           packets_per_flow=2, seed=1, account=True)
        global_budget = result["tenant_budget_bytes"] * tenants
        assert result["flows"] == 100_000
        assert result["ledger_bank_bytes"] <= global_budget
        assert result["peak_bank_bytes"] <= global_budget
        assert result["ledger_bank_bytes"] == result["total_bank_bytes"]
        assert result["emission_latency_p99_s"] <= 0.005
