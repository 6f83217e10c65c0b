"""Budget eviction against the scan it replaced (DESIGN.md §13).

``FlowTable._tenant_lru`` answers from a per-tenant heap built on first
need and corrected only at its top; :func:`reference_lru` in
``flowtable_oracle.py`` is the O(flows) scan that was there before.
These tests drive a table through interleavings of ``admit`` /
``observe`` / ``close_flow`` / ``clamp_tenant`` / close-then-re-admit of
one key over one to three tenants, with the clock moving through a
handful of instants so that ties on ``last_activity`` dominate, and
check

* before every eviction, that the heap's victim *is* the scan's (the
  same object, so ties included) and is resident;
* after every step, that each tenant with a heap has exactly one entry
  per resident record, none keyed above its record, that the heap holds
  at most ``2 * resident + 64`` entries, that no emptied tenant keeps
  one, and that the running bank total equals the per-tenant sums.

Hand mutants of ``flowtable.py`` tried against this file, each caught
(all but the compaction pair also by the Hypothesis property alone, on
each of three seeds):

* re-key dropped (a stale top returned as the victim): "heap evicts
  ..., the scan ..." in ``test_observed_flows_are_rekeyed_not_evicted``
  and every interleaving;
* ``live`` check dropped (a closed flow's entry returned): "victim ...
  is not resident", first in
  ``test_closed_flows_never_come_back_as_victims``;
* tie broken on ``seq`` before ``flow_key``:
  ``test_ties_at_one_instant_fall_to_flow_key_string_order`` (``f10``,
  admitted after ``f9``, must still go first) and the entry layout
  check;
* heap kept after the tenant empties: "emptied tenant kept a heap" in
  ``test_heap_is_dropped_with_its_tenant``;
* compaction keeping the heap's first ``resident`` entries instead of
  rebuilding from the resident records (loses live entries), and
  compaction removed: only ``test_churn_below_budget_is_compacted`` and
  ``test_seeded_churn_between_squeezes_is_compacted`` get a heap past
  ``2 * resident + 64``; both fail;
* admission after the first eviction not pushed: "resident record
  without an entry" in every test that admits twice at budget.
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.core import Simulator
from repro.sidecar.flowtable import FlowRecord, FlowTable, FlowTableConfig
from tests.sidecar.flowtable_oracle import BANK, reference_lru

#: Clock steps between operations: mostly none, so that most records
#: share their ``last_activity`` and ``admitted_at`` with many others.
#: 0.005 crosses the table's batch tick (flush, and shedding when the
#: configuration allows it).
ADVANCES = (0.0, 0.0, 0.001, 0.005)

#: Flow names whose string order is not their numeric order
#: (f1 < f10 < f11 < ... < f19 < f2 < f20 < ... < f9).
FLOW_NAMES = tuple(f"f{index}" for index in range(24))


class CheckedTable:
    """A :class:`FlowTable` whose every victim is compared with the
    scan's, and whose heap invariants are checked after every step."""

    def __init__(self, budget_banks: int, tenants: int = 3,
                 **config) -> None:
        self.sim = Simulator()
        self.tenants = tenants
        config.setdefault("max_flows", 10_000)
        self.table = FlowTable(self.sim, FlowTableConfig(
            tenant_budget_bytes=budget_banks * BANK + BANK // 2, **config))
        #: Every record ever handed out, evicted and closed ones too.
        self.handles: list[FlowRecord] = []
        self.victims: list[str] = []
        self.compactions = 0
        chosen = self.table._tenant_lru
        build = self.table._build_lru_heap

        def checked_lru(tenant: str) -> FlowRecord:
            expected = reference_lru(self.table, tenant)
            victim = chosen(tenant)
            assert victim.live, f"victim {victim.flow_key} is not resident"
            assert victim is expected, (
                f"heap evicts {victim.flow_key}, the scan "
                f"{expected.flow_key}")
            self.victims.append(victim.flow_key)
            return victim

        def counted_build(tenant: str):
            self.compactions += tenant in self.table._lru_heaps
            return build(tenant)

        self.table._tenant_lru = checked_lru
        self.table._build_lru_heap = counted_build

    # -- operations -------------------------------------------------------

    def admit(self, tenant: str, flow: str) -> FlowRecord | None:
        record = self.table.admit(tenant, flow)
        if record is not None:
            self.handles.append(record)
        self.check()
        return record

    def observe(self, record: FlowRecord) -> None:
        self.table.observe(record, 1 + len(self.victims))
        self.check()

    def close(self, record: FlowRecord) -> None:
        self.table.close_flow(record)
        self.check()

    def readmit(self, record: FlowRecord) -> None:
        """Close a flow and admit its key again within one instant."""
        self.table.close_flow(record)
        self.admit(record.tenant, record.flow_id)

    def clamp(self, tenant: str, banks: int | None) -> None:
        self.table.clamp_tenant(
            tenant, None if banks is None else banks * BANK)
        self.check()

    def advance(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)
        self.check()

    # -- invariants -------------------------------------------------------

    def check(self) -> None:
        table = self.table
        assert set(table._lru_heaps) <= set(table._tenants), \
            "emptied tenant kept a heap"
        for tenant, heap in table._lru_heaps.items():
            resident = table._tenants[tenant]
            assert len(heap) <= 2 * len(resident) + 64
            for index in range(1, len(heap)):
                assert heap[(index - 1) // 2] < heap[index]
            entered = []
            for last_activity, admitted_at, key, _seq, record in heap:
                assert (admitted_at, key) == (record.admitted_at,
                                              record.flow_key)
                if record.live:
                    assert last_activity <= record.last_activity
                    entered.append(id(record))
            assert sorted(entered) == sorted(map(id, resident.values())), \
                "resident record without an entry (or with two)"
        assert table.total_bank_bytes() == BANK * table.flows
        assert table.total_bank_bytes() == sum(table._tenant_bank.values())

    def run(self, ops) -> None:
        """Apply ``(name, a, b)`` steps; indices wrap, so any integers
        make a valid program."""
        for name, a, b in ops:
            tenant = f"t{a % self.tenants}"
            # Among the latest handles, so that most are still resident.
            recent = self.handles[-12:]
            handle = recent[a % len(recent)] if recent else None
            if name == "admit":
                self.admit(tenant, FLOW_NAMES[b % len(FLOW_NAMES)])
            elif name == "advance":
                self.advance(ADVANCES[a % len(ADVANCES)])
            elif name == "clamp":
                # Most squeezes are released at once: the tenant is back
                # inside its budget but keeps the heap it built.
                self.clamp(tenant, b % 4)
                if b % 16 >= 4:
                    self.clamp(tenant, None)
            elif handle is None:
                continue
            elif name == "observe":
                self.observe(handle)
            elif name == "close":
                self.close(handle)
            else:
                assert name == "readmit"
                self.readmit(handle)


# -- directed cases -------------------------------------------------------

@pytest.mark.parametrize("flows, room", [(16, 10), (300, 100)])
def test_ties_at_one_instant_fall_to_flow_key_string_order(flows, room):
    # Everything happens at t=0, as in one tenant of ``run_scale``'s
    # admission phase: the order is the flow key's *string* order, in
    # which f10 < f11 < f12 < f2 although they were admitted after f9.
    checked = CheckedTable(budget_banks=room)
    for index in range(flows):
        checked.admit("t0", f"f{index}")
    assert checked.victims[:3] == ["t0/f0", "t0/f1", "t0/f10"]
    assert checked.victims == sorted(
        f"t0/f{index}" for index in range(flows))[:flows - room]
    assert checked.table.get("t0", "f9").live


def test_observed_flows_are_rekeyed_not_evicted():
    checked = CheckedTable(budget_banks=4)
    records = [checked.admit("t0", name) for name in "abcd"]
    checked.admit("t0", "e")                       # builds the heap: a goes
    checked.advance(0.001)
    for record in records[1:3]:                    # b, c: stale entries
        checked.observe(record)
    checked.admit("t0", "f")
    checked.admit("t0", "g")
    checked.advance(0.001)
    checked.observe(records[1])                    # b again: re-keyed twice
    checked.admit("t0", "h")
    checked.admit("t0", "i")
    assert checked.victims == ["t0/a", "t0/d", "t0/e", "t0/c", "t0/f"]
    assert records[1].live


def test_closed_flows_never_come_back_as_victims():
    checked = CheckedTable(budget_banks=3)
    a, b, c = (checked.admit("t0", name) for name in "abc")
    checked.admit("t0", "d")                       # a goes; heap: b c d
    checked.close(b)                               # dead entry at the top
    checked.readmit(c)                             # dead c beside live c
    checked.admit("t0", "e")
    checked.admit("t0", "f")
    assert checked.victims == ["t0/a", "t0/c"]
    assert not a.live and not b.live and not c.live
    assert checked.table.get("t0", "c") is None


def test_heap_is_dropped_with_its_tenant():
    checked = CheckedTable(budget_banks=2)
    for name in "abc":
        checked.admit("t0", name)
    assert "t0" in checked.table._lru_heaps
    checked.clamp("t0", 0)
    assert checked.table._lru_heaps == {}
    checked.clamp("t0", None)
    # Back under its budget the tenant holds no heap until it needs one.
    checked.admit("t0", "d")
    checked.admit("t0", "e")
    assert checked.table._lru_heaps == {}
    checked.admit("t0", "f")
    assert checked.victims[-1] == "t0/d"


def test_tenants_inside_their_budget_hold_no_heap():
    checked = CheckedTable(budget_banks=3)
    for name in "abcd":
        checked.admit("tight", name)
    for name in "abc":
        checked.admit("roomy", name)
    assert set(checked.table._lru_heaps) == {"tight"}


def test_churn_below_budget_is_compacted():
    # After one eviction the tenant has a heap; close/admit churn that
    # never needs a victim only ever pushes to it.  The bound asserted
    # after every step forces the rebuild, and the clamp that follows
    # needs every surviving entry.
    checked = CheckedTable(budget_banks=6)
    for index in range(7):
        checked.admit("t0", f"f{index}")
    for index in range(7, 400):
        checked.close(checked.handles[-1])
        checked.admit("t0", f"f{index}")
        if index % 50 == 0:
            checked.advance(0.001)
            checked.observe(checked.handles[3])
    assert checked.compactions >= 2
    for banks in range(5, -1, -1):
        checked.clamp("t0", banks)
    assert checked.table.flows == 0


# -- seeded interleavings -------------------------------------------------

OPS = ("admit", "observe", "close", "readmit", "clamp", "advance")

#: name -> (budget in banks, table config, op weights in OPS order).
MIXES = {
    "tight": (3, {}, (8, 6, 2, 2, 1, 3)),
    "roomier": (7, {"tenants": 2}, (8, 8, 3, 3, 1, 3)),
    "sheds": (5, {"max_flows": 12, "shed_high_water": 0.75,
                  "shed_low_water": 0.5, "idle_after_s": 0.004,
                  "low_traffic_observed": 3}, (9, 6, 1, 2, 1, 4)),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_seeded_interleavings_evict_what_the_scan_would(mix, seed):
    budget_banks, config, weights = MIXES[mix]
    rng = random.Random(f"{mix}/{seed}")
    checked = CheckedTable(budget_banks, **config)
    checked.run((name, rng.randrange(1 << 16), rng.randrange(1 << 16))
                for name in rng.choices(OPS, weights, k=1500))
    stats = checked.table.stats
    assert stats.flows_evicted == len(checked.victims) > 0
    if mix == "sheds":
        assert stats.flows_shed > 0 and stats.flows_rejected > 0


@pytest.mark.parametrize("seed", range(4))
def test_seeded_churn_between_squeezes_is_compacted(seed):
    # A tenant squeezed once keeps its heap while it has flows; churn
    # inside the budget then only pushes to it, so dead entries pile up
    # until the rebuild.  The next squeeze takes its victims from the
    # rebuilt heap, stale and dead entries among them.
    rng = random.Random(seed)
    checked = CheckedTable(budget_banks=len(FLOW_NAMES), tenants=1)
    churn = [op for op in OPS if op != "clamp"]
    for _ in range(5):
        checked.run(("admit", 0, index) for index in range(len(FLOW_NAMES)))
        checked.clamp("t0", rng.randrange(1, 4))
        checked.clamp("t0", None)
        checked.run((name, rng.randrange(1 << 16), rng.randrange(1 << 16))
                    for name in rng.choices(churn, (4, 3, 3, 9, 1), k=300))
    assert checked.compactions >= 3


# -- Hypothesis interleavings ---------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL = st.integers(min_value=0, max_value=63)
# min_size: Hypothesis sizes a list near its minimum (about five
# steps with none), and a stale or dead heap top takes a dozen to reach.
PROGRAMS = st.lists(st.tuples(st.sampled_from(OPS), SMALL, SMALL),
                    min_size=30, max_size=120)


@settings(max_examples=80, deadline=None)
@given(budget_banks=st.integers(min_value=1, max_value=6),
       tenants=st.integers(min_value=1, max_value=3), ops=PROGRAMS)
def test_any_interleaving_evicts_what_the_scan_would(budget_banks, tenants,
                                                     ops):
    CheckedTable(budget_banks, tenants).run(ops)
