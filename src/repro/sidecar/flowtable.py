"""Multi-tenant middlebox flow table: budgets, batching, shedding.

One sidecar process on a proxy tap serves *many* flows (ROADMAP item 2:
100k-1M concurrent flows per middlebox).  This module is that shared
process: a table of :class:`~repro.sidecar.emitter.QuackEmitter` banks
keyed by tenant, with the three overload behaviors a production
middlebox needs and the paper's deployment story assumes --

* **per-tenant memory budgets**, metered in the same ``bank_bytes`` the
  :data:`~repro.sidecar.accounting.FLOW_ACCOUNTS` ledger measures: a
  tenant over budget loses its least-recently-active flow first (LRU
  eviction), never another tenant's;
* **shared emission timers**: one batch timer on the simulator's timer
  wheel sweeps every ``batch_interval_s`` and coalesces all *due* flows
  into one burst of wire frames, instead of one timer per flow;
* **admission control and load shedding**: new flows are rejected above
  a global high-water mark, and when occupancy crosses the shed
  threshold the *cheapest-to-lose* flows are demoted first -- idle, then
  low-traffic, then active -- down to the low-water mark.

The robustness contract (DESIGN.md §13): losing a flow's bank only ever
*removes assistance*.  The evicted flow's sender stops seeing quACKs,
walks the health ladder down to ``E2E_ONLY``, and keeps its goodput at
the unassisted baseline with zero spurious retransmits.  The chaos
plans in :mod:`repro.chaos` check exactly this.

Everything here is deterministic: every eviction/shed ordering carries
an explicit total order with the flow key as tie-break, and
:func:`run_scale` -- the ``scale`` sweep scenario -- drives the table
from a seeded RNG in virtual time only, so sweep results are
byte-identical across worker counts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace

from repro import obs
from repro.netsim.core import Simulator
from repro.obs.metrics import LATENCY_BUCKETS
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sidecar.agents import ProxyEmitterTap
from repro.sidecar.emitter import QuackEmitter


#: Shedding starts when occupancy exceeds this fraction of ``max_flows``.
SHED_HIGH_WATER = 0.90

#: A flow with no activity for this long is shed first, seconds.
IDLE_AFTER_S = 0.1

#: A flow that has observed fewer packets than this is shed next.
LOW_TRAFFIC_OBSERVED = 8


@dataclass(slots=True)
class FlowTableConfig:
    """Sizing and policy knobs for one shared flow table.

    ``shed_low_water`` is a fraction of ``max_flows``: shedding, which
    starts when occupancy exceeds :data:`SHED_HIGH_WATER` of it, stops
    once occupancy is back at or below the low water.
    """

    max_flows: int = 1024
    tenant_budget_bytes: int = 64 * 1024
    shed_low_water: float = 0.75
    batch_interval_s: float = 0.005
    threshold: int = 4
    bits: int = 32

    def __post_init__(self) -> None:
        if self.max_flows < 1:
            raise ValueError(f"max_flows must be >= 1, got {self.max_flows}")
        if self.tenant_budget_bytes < 1:
            raise ValueError("tenant_budget_bytes must be >= 1, got "
                             f"{self.tenant_budget_bytes}")
        if not 0.0 < self.shed_low_water <= SHED_HIGH_WATER:
            raise ValueError(
                f"need 0 < shed_low_water <= {SHED_HIGH_WATER}, got "
                f"{self.shed_low_water}")
        if self.batch_interval_s <= 0:
            raise ValueError("batch_interval_s must be > 0, got "
                             f"{self.batch_interval_s}")


class FlowRecord:
    """One tracked flow: its bank plus the bookkeeping eviction needs."""

    __slots__ = ("tenant", "flow_id", "flow_key", "emitter", "bank_bytes",
                 "on_emit", "on_evict", "admitted_at", "last_activity",
                 "observed", "due", "due_since", "live")

    def __init__(self, tenant: str, flow_id: str, flow_key: str,
                 emitter: QuackEmitter, bank_bytes: int, now: float,
                 on_emit, on_evict) -> None:
        self.tenant = tenant
        self.flow_id = flow_id
        self.flow_key = flow_key
        self.emitter = emitter
        self.bank_bytes = bank_bytes
        self.on_emit = on_emit
        self.on_evict = on_evict
        self.admitted_at = now
        self.last_activity = now
        self.observed = 0
        self.due = False
        self.due_since = 0.0
        self.live = True


@dataclass(slots=True)
class FlowTableStats:
    """Lifetime counters of one table (all monotone, JSON-safe)."""

    flows_admitted: int = field(default=0, init=False)
    flows_rejected: int = field(default=0, init=False)
    flows_evicted: int = field(default=0, init=False)  # budget + clamp
    flows_shed: int = field(default=0, init=False)     # overload shedding
    flows_closed: int = field(default=0, init=False)   # graceful teardown
    observations: int = field(default=0, init=False)
    frames_batched: int = field(default=0, init=False)
    batches: int = field(default=0, init=False)
    peak_flows: int = field(default=0, init=False)
    peak_bank_bytes: int = field(default=0, init=False)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class FlowTable:
    """A shared middlebox multiplexing many emitters behind one timer."""

    def __init__(self, sim: Simulator,
                 config: FlowTableConfig | None = None) -> None:
        self.sim = sim
        self.config = config if config is not None else FlowTableConfig()
        self.stats = FlowTableStats()
        self._tenants: dict[str, dict[str, FlowRecord]] = {}
        self._tenant_bank: dict[str, int] = {}
        self._bank_total = 0
        # tenant -> min-heap of (last_activity, admitted_at, flow_key,
        # seq, record); only tenants that have needed a victim have one
        # (see ``_tenant_lru``).
        self._lru_heaps: dict[str, list[tuple]] = {}
        self._lru_seq = 0
        self._budget_override: dict[str, int] = {}
        self._due: list[FlowRecord] = []
        self._latencies: list[float] = []
        self._flow_count = 0
        self._closed = False
        self._batch_timer = sim.timer(self._batch_tick)
        self._batch_timer.rearm(self.config.batch_interval_s)

    # -- read side --------------------------------------------------------

    @property
    def flows(self) -> int:
        """Currently resident flows across all tenants."""
        return self._flow_count

    @property
    def tenants(self) -> int:
        return len(self._tenants)

    def total_bank_bytes(self) -> int:
        """Resident bank memory across every tenant."""
        return self._bank_total

    def tenant_bank_bytes(self, tenant: str) -> int:
        return self._tenant_bank.get(tenant, 0)

    def get(self, tenant: str, flow_id: str) -> FlowRecord | None:
        return self._tenants.get(tenant, {}).get(f"{tenant}/{flow_id}")

    # -- admission --------------------------------------------------------

    def admit(self, tenant: str, flow_id: str, *,
              emitter: QuackEmitter | None = None,
              on_emit=None, on_evict=None) -> FlowRecord | None:
        """Register a flow; returns its record, or None when rejected.

        Admission enforces two independent limits: the global
        ``max_flows`` high-water mark (reject -- overload must not grow
        the table) and the per-tenant byte budget (evict that tenant's
        LRU flows until the newcomer fits -- one tenant's burst never
        costs another tenant state).
        """
        now = self.sim.now
        key = f"{tenant}/{flow_id}"
        records = self._tenants.get(tenant)
        if records is not None and key in records:
            return records[key]
        if self._flow_count >= self.config.max_flows:
            return self._reject(tenant, flow_id)
        if emitter is None:
            emitter = QuackEmitter(self.config.threshold, self.config.bits,
                                   flow=key)
        else:
            # The ledger keys on the tenant-qualified flow, so observe
            # and emit hooks must account under the same name.
            emitter.flow = key
        bank = emitter.bank_bytes
        budget = self._budget_override.get(tenant,
                                           self.config.tenant_budget_bytes)
        held = self._tenant_bank.get(tenant, 0)
        while held + bank > budget and records:
            self._remove(self._tenant_lru(tenant), "budget")
            # ``_remove`` drops the tenant's dict once it empties.
            held = self._tenant_bank.get(tenant, 0)
            records = self._tenants.get(tenant)
        if held + bank > budget:
            # The newcomer alone does not fit the tenant's budget.
            return self._reject(tenant, flow_id)
        record = FlowRecord(tenant, flow_id, key, emitter, bank, now,
                            on_emit, on_evict)
        if records is None:
            records = self._tenants[tenant] = {}
        records[key] = record
        heap = self._lru_heaps.get(tenant)
        if heap is not None:
            self._lru_seq += 1
            heappush(heap, (now, now, key, self._lru_seq, record))
        self._tenant_bank[tenant] = held + bank
        self._bank_total += bank
        self._flow_count += 1
        stats = self.stats
        stats.flows_admitted += 1
        if self._flow_count > stats.peak_flows:
            stats.peak_flows = self._flow_count
        if self._bank_total > stats.peak_bank_bytes:
            stats.peak_bank_bytes = self._bank_total
        if obs.TRACER.enabled:
            # Direct: admissions have no per-flow event to derive from.
            obs.count("flowtable_flows_admitted_total")
        return record

    def swap_emitter(self, record: FlowRecord, emitter: QuackEmitter) -> None:
        """Put a fresh ``emitter`` in a live ``record`` (its owner reset,
        crashed or renegotiated), keeping the tenant's bytes equal to
        its resident banks."""
        emitter.flow = record.flow_key
        bank = emitter.bank_bytes
        change = bank - record.bank_bytes
        record.emitter = emitter
        record.bank_bytes = bank
        record.due = False
        self._tenant_bank[record.tenant] += change
        self._bank_total += change
        self.stats.peak_bank_bytes = max(self.stats.peak_bank_bytes,
                                         self._bank_total)

    def _reject(self, tenant: str, flow_id: str) -> None:
        self.stats.flows_rejected += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.flow_reject", self.sim.now,
                            tenant=tenant, flow=flow_id,
                            flows=self._flow_count)

    # -- observation ------------------------------------------------------

    def observe(self, record: FlowRecord, identifier: int, *,
                ctx: int | None = None) -> bool:
        """Fold one identifier into ``record``'s bank.

        Returns False (a no-op) when the record was evicted: the caller
        keeps its handle, learns the flow lost assistance, and may
        re-admit.  Emission is *never* inline -- due flows wait for the
        shared batch timer.
        """
        if not record.live:
            return False
        now = self.sim.now
        due = (record.emitter.note(identifier, now) if ctx is None else
               record.emitter.note(identifier, now, ctx=ctx,
                                   flow=record.flow_key))
        record.observed += 1
        record.last_activity = now
        self.stats.observations += 1
        if due and not record.due:
            record.due = True
            record.due_since = now
            self._due += (record,)      # in place: ``append`` is a call
        return True

    # -- the shared emission timer ----------------------------------------

    def _batch_tick(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._flow_count > SHED_HIGH_WATER * self.config.max_flows:
            self._shed(self.sim.now)
        self._batch_timer.rearm(self.config.batch_interval_s)

    def flush(self) -> int:
        """Emit a frame for every due flow; returns frames produced."""
        now = self.sim.now
        due, self._due = self._due, []
        frames = 0
        for record in due:
            record.due = False
            if not record.live or record.emitter.pending_packets == 0:
                continue
            snapshot = record.emitter.emit(now)
            # Coalescing delay: from the policy declaring the flow due
            # to the shared timer putting its frame on the wire.  The
            # SLO budget bounds this tail, not the policy's own wait.
            latency = now - record.due_since
            self._latencies += (latency,)
            if obs.TRACER.enabled:
                # Direct: ``sidecar.batch_emit`` is per sweep, not per frame.
                obs.observe("flowtable_emission_latency_seconds",
                            latency, buckets=LATENCY_BUCKETS)
            frames += 1
            if record.on_emit is not None:
                record.on_emit(snapshot, now)
        if frames:
            self.stats.frames_batched += frames
            self.stats.batches += 1
            if obs.TRACER.enabled:
                obs.TRACER.emit("sidecar.batch_emit", now, frames=frames,
                                flows=self._flow_count)
        return frames

    # -- eviction / shedding / teardown -----------------------------------

    def _build_lru_heap(self, tenant: str) -> list[tuple]:
        records = self._tenants[tenant].values()
        heap = [(record.last_activity, record.admitted_at, record.flow_key,
                 seq, record)
                for seq, record in enumerate(records, self._lru_seq + 1)]
        self._lru_seq += len(heap)
        heapify(heap)
        self._lru_heaps[tenant] = heap
        return heap

    def _tenant_lru(self, tenant: str) -> FlowRecord:
        """The tenant's resident flow least in ``(last_activity,
        admitted_at, flow_key)``, from a heap corrected only at its top.

        The heap is built the first time the tenant needs a victim, so
        a tenant inside its budget never holds one, and ``observe``
        never touches it: an entry keeps the ``last_activity`` it was
        written with.  Virtual time is monotone, so a record's key only
        grows and every entry is a lower bound of its record's key; a
        top entry that is still exact is therefore below every other
        resident record's current key -- the same victim, ties
        included, as a scan of the tenant.  ``seq`` only keeps the
        tuple comparison off the records when a flow key is closed and
        re-admitted within one instant.
        """
        heap = self._lru_heaps.get(tenant)
        if heap is None:
            heap = self._build_lru_heap(tenant)
        while True:
            entry = heap[0]
            record = entry[4]
            if not record.live:
                heappop(heap)
            elif record.last_activity != entry[0]:
                heapreplace(heap, (record.last_activity, entry[1], entry[2],
                                   entry[3], record))
            else:
                return record

    def _remove(self, record: FlowRecord, reason: str) -> None:
        record.live = False
        tenant_records = self._tenants.get(record.tenant)
        if tenant_records is not None:
            tenant_records.pop(record.flow_key, None)
            self._bank_total -= record.bank_bytes
            if not tenant_records:
                del self._tenants[record.tenant]
                del self._tenant_bank[record.tenant]
                self._lru_heaps.pop(record.tenant, None)
            else:
                self._tenant_bank[record.tenant] -= record.bank_bytes
                # A removed flow's entry stays until it surfaces at the
                # top; rebuild before dead entries outnumber the live.
                heap = self._lru_heaps.get(record.tenant)
                if (heap is not None
                        and len(heap) > 2 * len(tenant_records) + 64):
                    self._build_lru_heap(record.tenant)
        self._flow_count -= 1
        if reason == "close":
            self.stats.flows_closed += 1
        elif reason == "shed":
            self.stats.flows_shed += 1
        else:
            self.stats.flows_evicted += 1
        if FLOW_ACCOUNTS.armed:
            FLOW_ACCOUNTS.forget(record.flow_key)
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.flow_evict", self.sim.now,
                            tenant=record.tenant, flow=record.flow_id,
                            reason=reason)
        if record.on_evict is not None and reason != "close":
            record.on_evict(reason)

    def close_flow(self, record: FlowRecord) -> bool:
        """Graceful teardown (the flow ended); returns False if gone."""
        if not record.live:
            return False
        self._remove(record, "close")
        return True

    def clamp_tenant(self, tenant: str, budget_bytes: int) -> int:
        """Force a tenant's budget down for the rest of the run.

        Unlike LRU-on-admit this evicts *immediately*, active flows
        included -- the memory-pressure semantics of a host cgroup
        clamp.  Returns the number of flows evicted.
        """
        self._budget_override[tenant] = budget_bytes
        evicted = 0
        while (self._tenant_bank.get(tenant, 0) > budget_bytes
               and self._tenants.get(tenant)):
            self._remove(self._tenant_lru(tenant), "clamp")
            evicted += 1
        return evicted

    def _shed(self, now: float) -> int:
        """Demote cheapest-to-lose flows: idle > low-traffic > active."""
        target = int(self.config.shed_low_water * self.config.max_flows)
        idle: list[FlowRecord] = []
        low: list[FlowRecord] = []
        active: list[FlowRecord] = []
        for records in self._tenants.values():
            for record in records.values():
                if now - record.last_activity > IDLE_AFTER_S:
                    idle.append(record)
                elif record.observed < LOW_TRAFFIC_OBSERVED:
                    low.append(record)
                else:
                    active.append(record)
        idle.sort(key=lambda r: (r.last_activity, r.flow_key))
        low.sort(key=lambda r: (r.observed, r.last_activity, r.flow_key))
        active.sort(key=lambda r: (r.last_activity, r.flow_key))
        shed = 0
        for record in idle + low + active:
            if self._flow_count <= target:
                break
            self._remove(record, "shed")
            shed += 1
        return shed

    def close(self) -> None:
        """Final flush, then stop the batch timer."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._batch_timer.cancel()

    # -- reporting --------------------------------------------------------

    def stats_dict(self) -> dict:
        """JSON-safe summary (chaos results and sweep cells embed it)."""
        return {
            "flows": self._flow_count,
            "tenants": len(self._tenants),
            "total_bank_bytes": self.total_bank_bytes(),
            "peak_flows": self.stats.peak_flows,
            "peak_bank_bytes": self.stats.peak_bank_bytes,
            "flows_admitted": self.stats.flows_admitted,
            "flows_rejected": self.stats.flows_rejected,
            "flows_evicted": self.stats.flows_evicted,
            "flows_shed": self.stats.flows_shed,
            "flows_closed": self.stats.flows_closed,
            "observations": self.stats.observations,
            "frames_batched": self.stats.frames_batched,
            "batches": self.stats.batches,
            "emissions": len(self._latencies),
            "emission_latency_p50_s": _quantile(self._latencies, 0.50),
            "emission_latency_p99_s": _quantile(self._latencies, 0.99),
        }


class FlowTableTap(ProxyEmitterTap):
    """A proxy tap whose emitter lives in a shared flow table.

    Observations route through :meth:`FlowTable.observe` (so budget
    accounting and LRU recency see them) and emission happens on the
    table's shared batch timer, not inline.  When the table evicts this
    flow the tap goes silent -- the sender's health ladder does the
    rest.
    """

    def __init__(self, sim, router, server: str, client: str, flow_id: str,
                 policy, table: FlowTable, tenant: str = "primary",
                 **kwargs) -> None:
        self.table = table
        self.evictions = 0
        self._record: FlowRecord | None = None
        super().__init__(sim, router, server, client, flow_id, policy,
                         **kwargs)
        self._record = table.admit(tenant, flow_id, emitter=self.emitter,
                                   on_emit=self._deliver,
                                   on_evict=self._evicted)

    @property
    def assisted(self) -> bool:
        """Whether the table currently holds this flow's bank."""
        return self._record is not None and self._record.live

    def on_data(self, packet) -> None:
        if self._record is None or not self._record.live:
            return  # evicted: assistance is gone, sender falls to e2e
        self.table.observe(self._record, packet.identifier,
                           ctx=packet.trace_ctx)

    def _deliver(self, snapshot, now: float) -> None:
        self._send(snapshot)

    def _evicted(self, reason: str) -> None:
        self.evictions += 1

    def _replace_emitter(self) -> None:
        super()._replace_emitter()
        if self.assisted:   # the table folds and emits through the record
            self.table.swap_emitter(self._record, self.emitter)

    def fault_counters(self) -> dict:
        counters = super().fault_counters()
        counters.update(evictions=self.evictions, assisted=self.assisted)
        return counters


# ---------------------------------------------------------------------------
# The ``scale`` sweep scenario: a pure spec -> dict workload driver.
# ---------------------------------------------------------------------------

def run_scale(*, flows: int = 2000, tenants: int = 8,
              packets_per_flow: int = 4, churn_rate: float = 0.0,
              duration_s: float = 1.0, tick_s: float = 0.0073,
              threshold: int = 4, bits: int = 32,
              max_flows: int | None = None,
              tenant_budget_bytes: int | None = None,
              batch_interval_s: float = 0.005,
              seed: int = 1, account: bool = False) -> dict:
    """Drive a flow table at scale in virtual time; returns a flat dict.

    ``flows`` flows spread round-robin over ``tenants`` tenants each
    receive ``packets_per_flow`` observations across ``duration_s``
    virtual seconds; ``churn_rate`` is the fraction of the population
    replaced per second (close oldest, admit fresh) -- the teardown
    pattern that exercises ``FLOW_ACCOUNTS.forget`` and the timer
    wheel's cancel/rearm path.  With ``account=True`` the global ledger
    is armed for the run (and restored after), so the result carries
    the resident ``ledger_bank_bytes`` a memory budget is asserted
    against.  Deterministic: seeded RNG, virtual clock, no wall time.

    The default ``tick_s`` is deliberately off the batch-interval grid
    so observations land between sweeps and the coalescing delay the
    p99 budget bounds is actually visible (ticks aligned with the batch
    timer would measure an unrepresentative zero).
    """
    for name, value, floor in (("flows", flows, 1), ("tenants", tenants, 1),
                               ("packets_per_flow", packets_per_flow, 0),
                               ("churn_rate", churn_rate, 0)):
        if value < floor:
            raise ValueError(f"{name} must be >= {floor}, got {value}")
    for name, value in (("duration_s", duration_s), ("tick_s", tick_s)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    sim = Simulator()
    config = FlowTableConfig(
        max_flows=max_flows if max_flows is not None else max(2 * flows, 16),
        tenant_budget_bytes=(
            tenant_budget_bytes if tenant_budget_bytes is not None
            else _default_tenant_budget(flows, tenants, threshold, bits)),
        batch_interval_s=batch_interval_s,
        threshold=threshold, bits=bits)
    table = FlowTable(sim, config)
    rng = random.Random(seed)
    records: list[FlowRecord] = []
    live: deque[FlowRecord] = deque()
    flow_seq = 0

    def admit_one() -> None:
        nonlocal flow_seq
        record = table.admit(f"t{flow_seq % tenants}", f"f{flow_seq}")
        flow_seq += 1
        if record is not None:
            records.append(record)
            live.append(record)

    for _ in range(flows):
        admit_one()

    ticks = max(1, int(round(duration_s / tick_s)))
    # With every flow rejected there is nothing to observe (and no
    # record for the cursor to index).
    total_obs = flows * packets_per_flow if records else 0
    per_tick = -(-total_obs // ticks) if total_obs else 0  # ceil div
    tick = cursor = 0
    churn_carry = 0.0
    # ``rng.randrange(1, 1 << bits)``'s own rejection loop, in one call
    # per draw: the identifiers are the same, draw for draw.
    getrandbits = rng.getrandbits
    reject_from = (1 << bits) - 1

    def step() -> None:
        nonlocal tick, cursor, churn_carry
        observe = table.observe
        admitted = len(records)
        stop = min(cursor + per_tick, total_obs)
        for index in range(cursor, stop):
            identifier = getrandbits(bits)
            while identifier >= reject_from:
                identifier = getrandbits(bits)
            observe(records[index % admitted], identifier + 1)
        cursor = stop
        churn_carry += churn_rate * flows * tick_s
        replace = int(churn_carry)
        churn_carry -= replace
        for _ in range(replace):
            while live and not live[0].live:
                live.popleft()
            if not live:
                break
            table.close_flow(live.popleft())
            admit_one()
        tick += 1
        if tick < ticks:
            timer.rearm(tick_s)
        else:
            table.close()

    timer = sim.timer(step)
    timer.rearm(tick_s)

    was_armed = FLOW_ACCOUNTS.armed
    if account and not was_armed:
        FLOW_ACCOUNTS.reset()
        FLOW_ACCOUNTS.arm()
    try:
        sim.run(until=duration_s + 1.0)
        table.close()
        ledger = ({"ledger_flows": FLOW_ACCOUNTS.flows,
                   "ledger_bank_bytes": FLOW_ACCOUNTS.total_bank_bytes(),
                   "ledger_evicted_flows": FLOW_ACCOUNTS.evicted_flows}
                  if account else {})
    finally:
        if account and not was_armed:
            FLOW_ACCOUNTS.disarm()
            FLOW_ACCOUNTS.reset()
    result = {"scenario": "scale", "seed": seed,
              "flows_requested": flows, "tenants_requested": tenants,
              "packets_per_flow": packets_per_flow,
              "churn_rate": churn_rate, "duration_s": duration_s,
              "max_flows": config.max_flows,
              "tenant_budget_bytes": config.tenant_budget_bytes}
    result.update(table.stats_dict())
    result.update(ledger)
    return result


def _default_tenant_budget(flows: int, tenants: int,
                           threshold: int, bits: int) -> int:
    """Room for every flow of an evenly loaded tenant, doubled."""
    bank = QuackEmitter(threshold, bits).bank_bytes
    return max(1, bank * (-(-flows // tenants)) * 2)

