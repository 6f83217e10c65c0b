"""Overload injectors for the multi-tenant flow-table chaos plans.

Where :mod:`repro.netsim.faults` breaks the *channel* and
:mod:`repro.chaos.adversary` corrupts the *content*, these injectors
attack the middlebox's *capacity*: background tenants flooding the
shared flow table with admissions, churn, and memory pressure while the
harness's primary transfer rides the same table.  The invariant under
test is the flow table's robustness contract: overload may take
assistance away from a flow (rejection, eviction, shedding) but must
never corrupt it -- the primary sender either keeps its quACKs or falls
cleanly down the health ladder to ``E2E_ONLY`` at goodput no worse than
the unassisted baseline, with zero spurious retransmits.

Every driver is seeded and runs on simulator timers only, so chaos runs
stay byte-identical across scheduler backends (the differential suite
executes each plan under both).
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from dataclasses import dataclass, field

from repro.netsim.core import Simulator
from repro.sidecar.flowtable import FlowRecord, FlowTable, FlowTableConfig

#: Off the batch-interval grid, so driver traffic lands between sweeps.
DRIVER_TICK_S = 0.0077

#: The tenant the harness's own transfer is admitted under.
PRIMARY_TENANT = "primary"


class _Driver:
    """What every driver dataclass shares: counters reported as stats.

    A driver's ``field(init=False)`` fields are its state -- what it
    did, not how it was configured -- and exactly what ``stats`` shows.
    """

    @property
    def stats(self) -> dict:
        return {spec.name: getattr(self, spec.name)
                for spec in dataclasses.fields(self) if not spec.init}

    def _admit(self, tenant: str, flow_index: int) -> FlowRecord | None:
        """Admit one flow, count the verdict, feed it a first packet."""
        record = self._table.admit(tenant, f"f{flow_index}")
        if record is None:
            self.rejected += 1
            return None
        self.admitted += 1
        self._table.observe(record, self._rng.randrange(1, 1 << 32))
        return record


@dataclass
class BackgroundLoad(_Driver):
    """Steady multi-tenant load: mostly one-shot flows, a few active.

    At ``START_S`` every flow is admitted and observed once; from then
    until ``STOP_S`` only the first ``ACTIVE_PER_TENANT`` flows of each
    tenant keep receiving packets.  The one-shot majority goes idle --
    exactly the population load shedding should demote first.
    """

    START_S = 0.1
    STOP_S = 1.1
    ACTIVE_PER_TENANT = 4

    seed: int
    tenants: int = 3
    flows_per_tenant: int = 16
    admitted: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    observations: int = field(default=0, init=False)

    def arm(self, sim: Simulator, table: FlowTable, tap) -> None:
        self._sim = sim
        self._table = table
        self._rng = random.Random(self.seed)
        self._records: list[FlowRecord] = []
        self._timer = sim.timer(self._tick)
        sim.schedule(self.START_S, self._admit_all)

    def _admit_all(self) -> None:
        for tenant_index in range(self.tenants):
            for flow_index in range(self.flows_per_tenant):
                record = self._admit(f"bg{tenant_index}", flow_index)
                if record is None:
                    continue
                self.observations += 1
                if flow_index < self.ACTIVE_PER_TENANT:
                    self._records.append(record)
        self._timer.rearm(DRIVER_TICK_S)

    def _tick(self) -> None:
        for record in self._records:
            if self._table.observe(record,
                                   self._rng.randrange(1, 1 << 32)):
                self.observations += 1
        if self._sim.now + DRIVER_TICK_S <= self.STOP_S:
            self._timer.rearm(DRIVER_TICK_S)


@dataclass
class TenantBurst(_Driver):
    """One tenant tries to admit a flood of flows at ``at``.

    Sized above the table's global high-water mark, the tail of the
    burst must be *rejected* (admission control), never allowed to grow
    the table or displace other tenants' state.
    """

    at: float
    flows: int
    seed: int
    admitted: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)

    def arm(self, sim: Simulator, table: FlowTable, tap) -> None:
        self._table = table
        self._rng = random.Random(self.seed)
        sim.schedule(self.at, self._burst)

    def _burst(self) -> None:
        for flow_index in range(self.flows):
            self._admit("burst", flow_index)


@dataclass
class ChurnStorm(_Driver):
    """Mass flow churn: every tick, close the oldest and admit fresh.

    The teardown pattern that leaks ledgers and stresses timer
    cancel/rearm; the primary flow must ride through it untouched.
    """

    START_S = 0.2
    STOP_S = 1.0
    CHURN_PER_TICK = 6

    seed: int
    admitted: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    closed: int = field(default=0, init=False)

    def arm(self, sim: Simulator, table: FlowTable, tap) -> None:
        self._sim = sim
        self._table = table
        self._rng = random.Random(self.seed)
        self._pool: deque[FlowRecord] = deque()
        self._next_flow = 0
        self._timer = sim.timer(self._tick)
        sim.schedule(self.START_S, self._tick)

    def _tick(self) -> None:
        for _ in range(self.CHURN_PER_TICK):
            record = self._admit("churn", self._next_flow)
            self._next_flow += 1
            if record is not None:
                self._pool.append(record)
        while len(self._pool) > self.CHURN_PER_TICK:
            if self._table.close_flow(self._pool.popleft()):
                self.closed += 1
        if self._sim.now + DRIVER_TICK_S <= self.STOP_S:
            self._timer.rearm(DRIVER_TICK_S)


@dataclass
class MemoryClamp(_Driver):
    """Force the primary tenant's budget to one byte at ``at``.

    Models a host-level memory clamp (cgroup pressure): the tenant's
    flows -- the harness's primary transfer included -- are evicted
    immediately, active or not.  With ``restore_at`` set the budget
    comes back and the tap re-admits itself (``rejoin=True``), which
    must heal through the count-regression reset into ``RECOVERING``
    probation, never straight to ``HEALTHY``.
    """

    at: float
    restore_at: float | None = None
    rejoin: bool = False
    evicted: int = field(default=0, init=False)
    restored: bool = field(default=False, init=False)
    rejoined: bool = field(default=False, init=False)

    def arm(self, sim: Simulator, table: FlowTable, tap) -> None:
        self._table = table
        self._tap = tap
        sim.schedule(self.at, self._clamp)
        if self.restore_at is not None:
            sim.schedule(self.restore_at, self._restore)

    def _clamp(self) -> None:
        # One byte holds no bank, so every flow of the tenant goes.
        self.evicted += self._table.clamp_tenant(PRIMARY_TENANT, 1)

    def _restore(self) -> None:
        self._table.clamp_tenant(PRIMARY_TENANT, None)
        self.restored = True
        if self.rejoin and self._tap is not None:
            self.rejoined = self._tap.rejoin()


@dataclass
class OverloadSpec:
    """The table's capacity plus the overload drivers to arm against it.

    Attached to a :class:`~repro.chaos.harness.ChaosSetup`, this makes
    the harness route its proxy tap through a shared
    :class:`~repro.sidecar.flowtable.FlowTable` (tenant ``primary``)
    and arm every driver against that table.  The ``expect_*`` flags
    become invariants: the corresponding table counter must be nonzero
    or the run is a violation (an overload plan that never overloads
    proves nothing).
    """

    #: What the plans' expectations were tuned against; the flow table's
    #: own defaults (64 KiB per tenant, low water 0.75) differ.
    TENANT_BUDGET_BYTES = 4096
    SHED_LOW_WATER = 0.70

    max_flows: int = 64
    drivers: list = field(default_factory=list)
    expect_rejections: bool = False
    expect_evictions: bool = False
    expect_sheds: bool = False

    def table_config(self) -> FlowTableConfig:
        return FlowTableConfig(
            max_flows=self.max_flows,
            tenant_budget_bytes=self.TENANT_BUDGET_BYTES,
            shed_low_water=self.SHED_LOW_WATER)
