"""Tests for the per-flow middlebox resource ledger."""

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.sidecar import agents
from repro.sidecar.accounting import FLOW_ACCOUNTS, FlowAccounts
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.emitter import QuackEmitter


@pytest.fixture(autouse=True)
def _ledger_clean():
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()
    yield
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()


class TestFlowAccounts:
    def test_disarmed_by_default(self):
        assert not FlowAccounts().armed
        assert not FLOW_ACCOUNTS.armed

    def test_observe_and_emit_accumulate(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("f1", bank_bytes=80)
        ledger.on_observe("f1", bank_bytes=82)
        ledger.on_emit("f1", frame_bytes=41)
        snapshot = ledger.snapshot()
        account = snapshot["flows"]["f1"]
        assert account["observed"] == 2
        assert account["bank_bytes"] == 82  # latest resident size wins
        assert account["frames_emitted"] == 1
        assert account["bytes_emitted"] == 41
        assert snapshot["total_bank_bytes"] == 82

    def test_top_is_deterministic_and_validates_key(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("a", bank_bytes=10)
        ledger.on_observe("b", bank_bytes=10)
        ledger.on_observe("c", bank_bytes=99)
        top = ledger.top(2)
        assert [flow for flow, _ in top] == ["c", "a"]  # value desc, name
        with pytest.raises(ObservabilityError):
            ledger.top(key="not_a_field")

    def test_reset_clears_flows(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("f1", bank_bytes=10)
        ledger.reset()
        assert ledger.flows == 0

    def test_forget_drops_entry_and_counts_eviction(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("f1", bank_bytes=10)
        ledger.on_observe("f2", bank_bytes=20)
        ledger.forget("f1")
        assert ledger.flows == 1
        assert ledger.evicted_flows == 1
        assert ledger.total_bank_bytes() == 20

    def test_forget_unknown_flow_is_a_noop(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.forget("never-seen")
        assert ledger.evicted_flows == 0

    def test_reset_zeroes_eviction_counter(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("f1", bank_bytes=10)
        ledger.forget("f1")
        ledger.reset()
        assert ledger.evicted_flows == 0

    def test_snapshot_carries_evicted_flows(self):
        ledger = FlowAccounts()
        ledger.arm()
        ledger.on_observe("f1", bank_bytes=10)
        ledger.forget("f1")
        assert ledger.snapshot()["evicted_flows"] == 1


class TestEmitterIntegration:
    def test_disarmed_emitter_records_nothing(self):
        emitter = QuackEmitter(4, flow="flow0")
        for index in range(4):
            emitter.observe(index + 1, now=0.01 * index)
        assert FLOW_ACCOUNTS.flows == 0

    def test_armed_emitter_feeds_the_ledger(self):
        FLOW_ACCOUNTS.arm()
        emitter = QuackEmitter(4, flow="flow0")
        for index in range(4):  # emit policy: every 2 packets
            emitter.observe(index + 1, now=0.01 * index)
        snapshot = FLOW_ACCOUNTS.snapshot()
        account = snapshot["flows"]["flow0"]
        assert account["observed"] == 4
        assert account["frames_emitted"] == 2
        assert account["bytes_emitted"] == emitter.stats.emitted_bytes
        assert account["bank_bytes"] == \
            (emitter.quack.wire_size_bits() + 7) // 8

    def test_observe_flow_override_wins(self):
        # ... the trace label, and only that: the passed ``flow`` names
        # the mb_observe event, while the bank is charged where emit()
        # charges it -- the emitter's own key.
        FLOW_ACCOUNTS.arm()
        sink = obs.enable(profile=False)
        try:
            emitter = QuackEmitter(4, flow="default")
            emitter.observe(1, now=0.0, ctx=7, flow="override")
            emitter.observe(2, now=0.0, ctx=8, flow="override")  # emits
        finally:
            obs.disable()
        assert [event.fields["flow"] for event in sink.events
                if event.type == "sidecar.mb_observe"] == ["override"] * 2
        snapshot = FLOW_ACCOUNTS.snapshot()
        assert list(snapshot["flows"]) == ["default"]
        account = snapshot["flows"]["default"]
        assert account["observed"] == 2
        assert account["frames_emitted"] == 1

    def test_cc_division_ledger_is_the_sum_of_resident_banks(
            self, monkeypatch):
        # ROADMAP 5(d): ledger bytes == sum of resident banks.  One flow,
        # two accumulators (client library, proxy upstream): each gets a
        # whole account instead of one bank split over two keys.
        resident = []

        class Recording(QuackEmitter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                resident.append(self)

        monkeypatch.setattr(agents, "QuackEmitter", Recording)
        FLOW_ACCOUNTS.arm()
        result = run_cc_division(total_bytes=200_000)
        assert result.completed
        snapshot = FLOW_ACCOUNTS.snapshot()
        assert sorted(e.flow for e in resident) == ["flow0", "proxy-upstream"]
        assert snapshot["total_bank_bytes"] == sum(
            (e.quack.wire_size_bits() + 7) // 8 for e in resident)
        for emitter in resident:
            account = snapshot["flows"][emitter.flow]
            assert account["observed"] == emitter.stats.observed
            assert account["frames_emitted"] == emitter.stats.emitted
