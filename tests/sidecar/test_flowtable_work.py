"""Work-counter gates: a budget eviction does not scan the tenant, and
an observation, an admission and a frame cost a fixed number of calls.

Machine-independent, like ``tests/transport/test_ack_work.py`` and the
insert+remove gate in ``test_consumer_truncation.py``: exact counts, no
clock.  ``FlowTable._tenant_lru`` used to take ``min(..., key=lambda)``
over every resident record of the tenant, so an admission into a tenant
at its budget cost one interpreter call per resident flow (500 / 2,000 /
8,000 flows: that many calls per eviction, 16x from the smallest to the
largest).  The per-tenant heap makes it a constant number of calls, and
at most one heap operation per admission, observation and eviction even
when every entry has gone stale in between.
"""

from __future__ import annotations

import cProfile
from collections import Counter

import pytest

from repro.netsim.core import Simulator
from repro.sidecar import flowtable
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sidecar.flowtable import FlowTable, FlowTableConfig
from tests.sidecar.flowtable_oracle import BANK

EVICTIONS = 200
MAX_GROWTH = 1.5


def _profiled_calls(run) -> int:
    """Interpreter calls of ``run()``, Python and builtin, summed from
    the raw entries as ``benchmarks/test_obs_overhead.py`` does (the
    repo benchmark's ``calls_per_op``)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def _tenant_at_budget(resident: int) -> FlowTable:
    table = FlowTable(Simulator(), FlowTableConfig(
        max_flows=4 * resident, tenant_budget_bytes=resident * BANK))
    for index in range(resident):
        table.admit("t0", f"f{index}")
    assert table.flows == resident
    return table


def _calls_per_eviction(resident: int) -> float:
    table = _tenant_at_budget(resident)

    def admit_over_budget() -> None:
        for index in range(EVICTIONS):
            table.admit("t0", f"g{index}")

    # The tenant's first victim is inside the count: building the heap
    # is one ``heapify``, not a call per flow.
    calls = _profiled_calls(admit_over_budget)
    assert table.stats.flows_evicted == EVICTIONS
    assert table.flows == resident
    return calls / EVICTIONS


def test_calls_per_eviction_do_not_grow_with_the_tenant():
    calls = {resident: _calls_per_eviction(resident)
             for resident in (500, 2000, 8000)}
    assert max(calls.values()) / min(calls.values()) <= MAX_GROWTH, calls


def test_heap_operations_are_bounded_by_the_events_that_cause_them(
        monkeypatch):
    # The worst re-key pattern: every resident flow is observed between
    # two evictions, so the whole heap is stale each time a victim is
    # needed.  Each entry goes stale at most once per observation, so
    # the work is still bounded by what happened to the table.
    operations = Counter()
    for name in ("heapify", "heappush", "heappop", "heapreplace"):
        def counted(*args, _name=name, _call=getattr(flowtable, name)):
            operations[_name] += 1
            return _call(*args)
        monkeypatch.setattr(flowtable, name, counted)

    resident, rounds = 300, 40
    table = _tenant_at_budget(resident)
    sim = table.sim
    for turn in range(rounds):
        sim.run(until=sim.now + 0.001)
        for record in table._tenants["t0"].values():
            table.observe(record, 1 + turn)
        table.admit("t0", f"g{turn}")

    stats = table.stats
    assert stats.flows_evicted == rounds
    assert stats.observations == resident * rounds
    # It is the worst case: after the first round (whose heap is built
    # fresh) every observation costs its re-key.
    assert operations["heapreplace"] == resident * (rounds - 1)
    assert sum(operations.values()) <= (stats.flows_admitted
                                        + stats.observations
                                        + 2 * stats.flows_evicted)


# -- the per-flow path: what one observation, admission and emission cost --
#
# Exact interpreter calls (``_profiled_calls``: the profiled function and
# ``Profile.disable`` included).  What is fixed for a flow -- its bank
# size, its policy, its quACK's parameters -- is computed when the flow
# is admitted, not per packet or per frame, and the ledger's hooks make
# one dict probe.

#: A flow's first observation, and its second, which makes it due (the
#: default policy emits every second packet): the table's ``observe``,
#: the emitter's ``note``, the quACK's ``insert`` and the policy's
#: ``on_packet``.  An armed ledger adds ``on_observe`` and its one
#: ``dict.get``, and on the flow's first observation its account.
OBSERVE_CALLS = {"disarmed": (6, 6), "armed": (9, 8)}
#: One admission of a new flow into a tenant inside its budget.
ADMIT_CALLS = 12
#: One batch sweep: a fixed part, and per due flow ``pending_packets``,
#: ``emit``, ``copy`` and the clone's ``object.__new__``.
FLUSH_CALLS = 2
FLUSH_CALLS_PER_FLOW = 4


@pytest.fixture
def ledger():
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()
    yield FLOW_ACCOUNTS
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()


@pytest.mark.parametrize("state", sorted(OBSERVE_CALLS))
def test_an_observation_costs_a_fixed_number_of_calls(ledger, state):
    if state == "armed":
        ledger.arm()
    table = FlowTable(Simulator(), FlowTableConfig())
    record = table.admit("t0", "f0")
    calls = (_profiled_calls(lambda: table.observe(record, 11)),
             _profiled_calls(lambda: table.observe(record, 12)))
    assert record.due and record.observed == 2
    assert calls == OBSERVE_CALLS[state]


def test_an_admission_costs_a_fixed_number_of_calls():
    table = FlowTable(Simulator(), FlowTableConfig())
    table.admit("t0", "f0")
    calls = _profiled_calls(lambda: table.admit("t0", "f1"))
    assert table.flows == 2
    assert calls == ADMIT_CALLS


@pytest.mark.parametrize("due", [1, 10])
def test_a_batch_emission_costs_a_fixed_number_of_calls_per_flow(due):
    table = FlowTable(Simulator(), FlowTableConfig())
    for index in range(due):
        record = table.admit("t0", f"f{index}")
        table.observe(record, 11)
        table.observe(record, 12)
    calls = _profiled_calls(table.flush)
    assert table.stats.frames_batched == due
    assert calls == FLUSH_CALLS + FLUSH_CALLS_PER_FLOW * due
