"""Work-counter gate: a budget eviction does not scan the tenant.

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

from repro.netsim.core import Simulator
from repro.sidecar import flowtable
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
