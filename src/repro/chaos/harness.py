"""The chaos harness: scripted adverse scenarios with invariant checks.

One canonical assisted transfer -- server -> proxy -> client with a
:class:`~repro.sidecar.agents.ProxyEmitterTap` quACKing back to a
:class:`~repro.sidecar.agents.ServerSidecar` -- runs under a
:class:`ChaosSetup`: fault injectors on the sidecar channel plus
scheduled middlebox crashes.  The harness collects everything a
robustness argument needs into a :class:`ChaosResult` and checks the
paper's core promise as machine-verifiable invariants
(:meth:`ChaosResult.violations`):

* the base transport delivered every byte end-to-end;
* emitter and consumer epochs converged;
* every corrupted datagram that arrived was classified as wire
  corruption (checksum), never silently mis-decoded.

Adversarial plans (built on :mod:`repro.chaos.adversary`) add the
defense invariants: the transfer still completes at no less than the
*unassisted baseline* goodput (measured by running the same transfer
with no sidecar at all), the lying sidecar lands in QUARANTINED, and no
quACK-decoded loss touches the sender after the quarantine verdict.
The ``crash-resume`` plan exercises checkpoint/restore instead: crashes
heal through the resume handshake with zero resets.

Named plans (:data:`PLANS`, each a :class:`ChaosPlan` with a one-line
description) make scenarios replayable from tests, the CLI
(``python -m repro chaos <plan>``), and ``examples/failure_modes.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro import obs
from repro.chaos.adversary import (
    EquivocationAdversary,
    ForgedPowerSumAdversary,
    HelloRewriteAdversary,
    HelloStripAdversary,
    LyingCountAdversary,
    ReplayAdversary,
)
from repro.chaos.injectors import MiddleboxCrash, sidecar_corrupter
from repro.chaos.overload import (
    BackgroundLoad,
    ChurnStorm,
    MemoryClamp,
    OverloadSpec,
    TenantBurst,
)
from repro.netsim.core import Simulator
from repro.netsim.faults import (
    SIDECAR_KINDS,
    Blackout,
    BurstLoss,
    Corruption,
    DelaySpike,
    Duplication,
    FaultInjector,
)
from repro.netsim.node import Host, Router
from repro.netsim.packet import reset_packet_uids
from repro.netsim.topology import HopSpec, PathTopology, build_path
from repro.sidecar.agents import ProxyEmitterTap, ServerSidecar
from repro.sidecar.defense import DefenseConfig
from repro.sidecar.flowtable import FlowTable, FlowTableTap
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.health import HealthConfig, HealthState, HealthTransition
from repro.sidecar.negotiate import Capabilities, NegotiateConfig
from repro.sidecar.snapshot import CheckpointStore
from repro.transport.connection import ReceiverConnection, SenderConnection

#: Default transfer: ~876 KB, about 1.5 s at the default 5 Mbps.
DEFAULT_TOTAL = 1460 * 600

#: Virtual seconds the simulation keeps running after completion.
DRAIN_S = 3.0


@dataclass
class ChaosSetup:
    """What goes wrong: injectors per direction plus process crashes.

    ``faults_toward_client`` rides the server->proxy->client links (the
    direction reset/config handshakes travel); ``faults_toward_server``
    rides client->proxy->server (the direction quACKs travel).  The same
    injector instance may serve both.  ``crashes`` wipe the proxy
    emitter at fixed times.

    ``adversarial`` marks setups whose injectors *lie* rather than
    break; the harness then arms the plausibility defense (``defense``
    overrides the default :class:`~repro.sidecar.defense.DefenseConfig`),
    measures the unassisted baseline, and checks the defense invariants.
    ``checkpoint_interval_s`` arms emitter checkpoint/restore with a
    :class:`~repro.sidecar.snapshot.CheckpointStore` so crashes heal
    through the resume handshake instead of the reset protocol.
    """

    name: str = "custom"
    faults_toward_client: FaultInjector | None = None
    faults_toward_server: FaultInjector | None = None
    crashes: MiddleboxCrash | None = None
    adversarial: bool = False
    defense: DefenseConfig | None = None
    checkpoint_interval_s: float | None = None
    #: Arm the HELLO/HELLO-ACK capability handshake on both agents.
    #: ``consumer_capabilities``/``emitter_capabilities`` override the
    #: defaults per side (cross-version matrix, version skew).
    negotiate: bool = False
    consumer_capabilities: Capabilities | None = None
    emitter_capabilities: Capabilities | None = None
    #: Schedule a mid-connection VERSION-SWITCH to ``version_switch_to``
    #: at this simulated time (negotiation must be armed).
    version_switch_at: float | None = None
    version_switch_to: int = 2
    #: Route the proxy tap through a shared multi-tenant flow table and
    #: arm the spec's overload drivers against it (tenant ``primary``).
    overload: OverloadSpec | None = None
    #: Measure the unassisted baseline even without a defense armed --
    #: the overload plans promise goodput >= unassisted despite having
    #: no adversary to defend against.
    measure_baseline: bool = False
    #: Extra invariants the run must satisfy.
    expect_negotiated_version: int | None = None
    expect_wire_version: int | None = None
    expect_no_resets: bool = False
    #: Check the drop-backed zero-spurious-retransmit invariant on its
    #: own (``expect_no_resets`` implies it; eviction plans that *do*
    #: heal through a reset still promise no spurious retransmits).
    expect_no_spurious: bool = False

    def injectors(self) -> list[FaultInjector]:
        unique: list[FaultInjector] = []
        for injector in (self.faults_toward_client, self.faults_toward_server):
            if injector is not None and injector not in unique:
                unique.append(injector)
        return unique


@dataclass
class ChaosResult:
    """Everything one chaos run produced, plus the invariant verdicts."""

    plan: str
    seed: int
    total_bytes: int
    completed: bool
    duration_s: float
    bytes_received: int
    emitter_epoch: int
    server_epoch: int
    health_final: HealthState
    health_transitions: list[HealthTransition]
    server_counters: dict
    emitter_counters: dict
    injector_stats: dict
    crashes: int
    faults_dropped: int
    faults_corrupted: int
    faults_duplicated: int
    wire_errors_seen: int
    control_corruptions_seen: int
    adversarial: bool = False
    faults_tampered: int = 0
    signals_by_kind: dict = field(default_factory=dict)
    quarantined_at: float | None = None
    last_loss_applied_at: float | None = None
    baseline_duration_s: float | None = None
    negotiated: bool = False
    negotiated_version: int | None = None
    handshake_bytes: int = 0
    assistance_started_s: float | None = None
    retransmitted_packets: int = 0
    #: Serialization time the handshake (and switch) traffic stole from
    #: DATA on the shared forward link, plus scheduling epsilon; the
    #: baseline comparison allows exactly this much.
    baseline_slack_s: float = 0.0
    expected_negotiated_version: int | None = None
    expected_wire_version: int | None = None
    expect_no_resets: bool = False
    expect_no_spurious: bool = False
    #: Flow-table stats of an overload run (None without a table), the
    #: per-driver stats, and the spec's nonzero-counter expectations.
    flowtable: dict | None = None
    overload_drivers: dict = field(default_factory=dict)
    flowtable_expectations: dict = field(default_factory=dict)
    #: Real datagram drops across every link (queue overflow, channel
    #: loss, injected faults) -- the ceiling "zero *spurious*
    #: retransmits" is judged against: every retransmission must be
    #: backed by an actual drop, none caused by protocol state churn.
    link_drops: int = 0

    @property
    def goodput_bps(self) -> float:
        """Delivered application throughput of this run."""
        return 8 * self.bytes_received / self.duration_s \
            if self.duration_s > 0 else 0.0

    @property
    def baseline_goodput_bps(self) -> float | None:
        """Throughput of the same transfer with no sidecar at all."""
        if self.baseline_duration_s is None or self.baseline_duration_s <= 0:
            return None
        return 8 * self.total_bytes / self.baseline_duration_s

    def violations(self) -> list[str]:
        """Invariant failures; an empty list means the run held up."""
        problems = []
        if not self.completed:
            problems.append(
                f"transfer did not complete ({self.bytes_received} of "
                f"{self.total_bytes} bytes after {self.duration_s:.1f} s)")
        elif self.bytes_received != self.total_bytes:
            problems.append(
                f"byte count mismatch: {self.bytes_received} != "
                f"{self.total_bytes}")
        if self.emitter_epoch != self.server_epoch:
            problems.append(
                f"epochs diverged: emitter {self.emitter_epoch}, "
                f"server {self.server_epoch}")
        if (self.faults_corrupted > 0
                and self.wire_errors_seen + self.control_corruptions_seen == 0):
            problems.append(
                f"{self.faults_corrupted} corrupted datagrams delivered but "
                f"none classified as wire corruption")
        if self.adversarial:
            # The paper's promise, under attack: assistance may only add.
            if self.server_counters.get("quarantines", 0) < 1:
                problems.append(
                    f"adversary tampered {self.faults_tampered} datagrams "
                    f"but was never quarantined")
            if (self.quarantined_at is not None
                    and self.last_loss_applied_at is not None
                    and self.last_loss_applied_at > self.quarantined_at):
                problems.append(
                    f"quACK-decoded loss applied at "
                    f"{self.last_loss_applied_at:.3f} s, after the "
                    f"quarantine verdict at {self.quarantined_at:.3f} s")
        if (self.completed and self.baseline_duration_s is not None
                and self.duration_s
                > self.baseline_duration_s + self.baseline_slack_s + 1e-9):
            problems.append(
                f"goodput below the unassisted baseline: completed in "
                f"{self.duration_s:.3f} s vs {self.baseline_duration_s:.3f} s "
                f"unassisted (+{self.baseline_slack_s * 1e3:.2f} ms "
                f"handshake slack)")
        if (self.expected_negotiated_version is not None
                and self.negotiated_version != self.expected_negotiated_version):
            problems.append(
                f"negotiated version {self.negotiated_version}, expected "
                f"{self.expected_negotiated_version}")
        if self.expected_wire_version is not None:
            for side in ("server_counters", "emitter_counters"):
                got = getattr(self, side).get("wire_version")
                if got != self.expected_wire_version:
                    problems.append(
                        f"{side.split('_')[0]} wire version {got}, expected "
                        f"{self.expected_wire_version} after the switch")
        if self.expect_no_resets:
            resets = self.server_counters.get("resets_initiated", 0)
            if resets:
                problems.append(
                    f"{resets} resets initiated in a run promised reset-free")
        if self.expect_no_resets or self.expect_no_spurious:
            # Congestion losses are the transport's business; what a
            # version switch or an eviction must never do is trigger
            # retransmissions of packets that were actually delivered
            # (a mis-decode or state loss would).  Every retransmission
            # therefore needs a real drop behind it.
            if self.retransmitted_packets > self.link_drops:
                problems.append(
                    f"{self.retransmitted_packets - self.link_drops} "
                    f"spurious retransmissions: {self.retransmitted_packets} "
                    f"retransmitted vs {self.link_drops} real datagram "
                    f"drops on the path")
        if self.flowtable is not None:
            # An overload plan that never overloads proves nothing: the
            # spec's expected pressure valves must actually have fired.
            for kind, key in (("rejections", "flows_rejected"),
                              ("evictions", "flows_evicted"),
                              ("sheds", "flows_shed")):
                if (self.flowtable_expectations.get(kind)
                        and self.flowtable.get(key, 0) < 1):
                    problems.append(
                        f"expected {kind} under overload but "
                        f"{key} stayed 0")
        return problems

    @property
    def ok(self) -> bool:
        return not self.violations()


def _run_transfer_loop(sim: Simulator, sender: SenderConnection,
                       receiver: ReceiverConnection,
                       deadline_s: float) -> bool:
    while sim.now < deadline_s:
        sim.run(until=min(sim.now + 0.25, deadline_s))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break
    return sender.complete and receiver.complete


#: Memoized unassisted-baseline durations, keyed by the transfer shape.
_BASELINE_CACHE: dict[tuple, float] = {}


def unassisted_baseline(total_bytes: int, bandwidth_bps: float,
                        delay_s: float, deadline_s: float = 60.0) -> float:
    """Duration of the same transfer with no sidecar (and no faults).

    The adversarial plans attack only the sidecar channel, which an
    unassisted connection does not have, so this is the floor the
    defense must hold: assistance under attack may never complete later
    than never having had assistance at all.  Deterministic, so the
    result is memoized per transfer shape.

    The baseline is the harness's yardstick, not part of the scenario
    (it even reuses the scenario's ``flow0`` and link names), so it runs
    with tracing and metrics suspended: a traced plan records the same
    events whether or not the memo was warm.
    """
    key = (total_bytes, bandwidth_bps, delay_s, deadline_s)
    cached = _BASELINE_CACHE.get(key)
    if cached is not None:
        return cached
    was_tracing = obs.TRACER.enabled
    obs.TRACER.enabled = False
    try:
        reset_packet_uids()
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client],
                   [HopSpec(bandwidth_bps=bandwidth_bps, delay_s=delay_s),
                    HopSpec(bandwidth_bps=bandwidth_bps, delay_s=delay_s)])
        receiver = ReceiverConnection(sim, client, "server", total_bytes)
        sender = SenderConnection(sim, server, "client", total_bytes)
        sender.start()
        _run_transfer_loop(sim, sender, receiver, deadline_s)
    finally:
        obs.TRACER.enabled = was_tracing
    _BASELINE_CACHE[key] = sim.now
    return sim.now


def run_chaos_transfer(setup: ChaosSetup, *,
                       seed: int = 1,
                       total_bytes: int = DEFAULT_TOTAL,
                       bandwidth_bps: float = 5e6,
                       delay_s: float = 0.005,
                       quack_every: int = 4,
                       threshold: int = 16,
                       reset_after_failures: int | None = 3,
                       settle_time: float = 0.1,
                       health: HealthConfig | None = None,
                       divide_cc: bool = False,
                       deadline_s: float = 60.0) -> ChaosResult:
    """Run the canonical assisted transfer under ``setup``.

    ``health`` defaults to a ladder tuned to the scenario's timescales
    (staleness after 0.25 s, probation 0.25 s); pass None explicitly via
    ``HealthConfig()`` alternatives if different thresholds are wanted.
    After completion the simulation drains for ``DRAIN_S`` so in-flight
    handshakes (reset retries) can converge the epochs.

    Setups with a defense armed (``adversarial`` or an explicit
    ``defense``/``checkpoint_interval_s``) additionally measure the
    unassisted baseline so the result can answer the robustness
    question: did assistance-under-attack ever cost goodput?
    """
    if health is None:
        health = HealthConfig(degrade_after=2, e2e_only_after=6,
                              stale_after=0.25, probation=0.25)
    defense = setup.defense
    if defense is None and setup.adversarial:
        defense = DefenseConfig()
    baseline_duration = None
    if defense is not None or setup.measure_baseline:
        # Measured first (and memoized) so the packet-uid reset below
        # keeps the main run byte-identical with or without a baseline.
        baseline_duration = unassisted_baseline(
            total_bytes, bandwidth_bps, delay_s, deadline_s)
    reset_packet_uids()
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    topology = build_path(
        sim, [server, proxy, client],
        [HopSpec(bandwidth_bps=bandwidth_bps, delay_s=delay_s,
                 faults_up=setup.faults_toward_client,
                 faults_down=setup.faults_toward_server),
         HopSpec(bandwidth_bps=bandwidth_bps, delay_s=delay_s)])
    receiver = ReceiverConnection(sim, client, "server", total_bytes)
    sender = SenderConnection(sim, server, "client", total_bytes,
                              cc_from_acks=not divide_cc)
    checkpoints = CheckpointStore() \
        if setup.checkpoint_interval_s is not None else None
    consumer_negotiate = emitter_negotiate = None
    if setup.negotiate:
        consumer_negotiate = NegotiateConfig(
            capabilities=setup.consumer_capabilities or Capabilities())
        emitter_negotiate = NegotiateConfig(
            capabilities=setup.emitter_capabilities or Capabilities())
    tap_kwargs = dict(
        server="server", client="client", flow_id="flow0",
        policy=PacketCountFrequency(quack_every), threshold=threshold,
        checkpoints=checkpoints,
        checkpoint_interval_s=setup.checkpoint_interval_s
        if setup.checkpoint_interval_s is not None else 0.05,
        negotiate=emitter_negotiate)
    table = None
    if setup.overload is not None:
        # The primary transfer shares one flow table with the overload
        # drivers' tenants; its emission rides the table's batch timer.
        table = FlowTable(sim, setup.overload.table_config())
        tap = FlowTableTap(sim, proxy, table=table,
                           tenant=setup.overload.primary_tenant,
                           **tap_kwargs)
    else:
        tap = ProxyEmitterTap(sim, proxy, **tap_kwargs)
    sidecar = ServerSidecar(sim, sender, threshold=threshold, grace=2,
                            apply_losses=True, congestive_loss=False,
                            reset_after_failures=reset_after_failures,
                            settle_time=settle_time, health=health,
                            defense=defense,
                            negotiate=consumer_negotiate,
                            peer="proxy" if setup.negotiate else None)
    if setup.version_switch_at is not None:
        if not setup.negotiate:
            raise ValueError(
                "version_switch_at needs negotiation armed on the setup")
        sim.schedule(setup.version_switch_at,
                     sidecar.request_version_switch, setup.version_switch_to)
    if setup.crashes is not None:
        setup.crashes.arm(sim, tap)
    if setup.overload is not None:
        setup.overload.arm(sim, table, tap)
    sender.start()

    completed = _run_transfer_loop(sim, sender, receiver, deadline_s)
    duration = sim.now
    # Health is judged at completion time: once the transfer is done,
    # quACKs legitimately stop, so anything later would read as "stale".
    monitor = sidecar.monitor
    health_final = sidecar.health_state
    transitions = list(monitor.stats.transitions) if monitor is not None \
        else []
    # Let straggling handshakes converge (the reset retry timer keeps
    # re-announcing the epoch until the emitter demonstrably adopted it).
    sim.run(until=sim.now + DRAIN_S)

    injectors = setup.injectors()
    injector_stats = {injector.name: injector.stats for injector in injectors}
    link_drops = sum(
        link.stats.dropped_queue + link.stats.dropped_loss
        + link.stats.dropped_fault
        for link in topology.links_up + topology.links_down)
    dropped = sum(i.stats.dropped for i in injectors)
    duplicated = sum(i.stats.duplicated for i in injectors)
    # An adversary's replacements are checksum-valid forgeries, not
    # corruption: they must never satisfy (nor trip) the wire-error
    # classification invariant, so they are tallied separately.  An
    # adversary's *drops* are tampering too (targeted suppression --
    # e.g. stripping capability offers), unlike a fault injector's
    # indiscriminate loss.
    corrupted = sum(i.stats.corrupted for i in injectors
                    if not getattr(i, "adversarial", False))
    tampered = sum(i.stats.corrupted + i.stats.dropped for i in injectors
                   if getattr(i, "adversarial", False))
    quarantined_at = next(
        (hop.time for hop in transitions
         if hop.new is HealthState.QUARANTINED), None)
    # Negotiation (and switch) control traffic shares the forward link
    # with DATA; its serialization time is time the baseline never
    # spent, so the goodput floor is allowed exactly that much slack.
    baseline_slack = 0.0
    if setup.negotiate:
        baseline_slack = (8 * (sidecar.handshake_bytes + 256)
                          / bandwidth_bps) + 2e-3
    result = ChaosResult(
        plan=setup.name,
        seed=seed,
        total_bytes=total_bytes,
        completed=completed,
        duration_s=duration,
        bytes_received=receiver.stats.bytes_received,
        emitter_epoch=tap.epoch,
        server_epoch=sidecar.epoch,
        health_final=health_final,
        health_transitions=transitions,
        server_counters=sidecar.fault_counters(),
        emitter_counters=tap.fault_counters(),
        injector_stats=injector_stats,
        crashes=setup.crashes.crashes if setup.crashes is not None else 0,
        faults_dropped=dropped,
        faults_corrupted=corrupted,
        faults_duplicated=duplicated,
        wire_errors_seen=sidecar.stats.wire_errors,
        control_corruptions_seen=tap.corrupt_frames,
        adversarial=setup.adversarial,
        faults_tampered=tampered,
        signals_by_kind=sidecar.ledger.by_kind()
        if sidecar.ledger is not None else {},
        quarantined_at=quarantined_at,
        last_loss_applied_at=sidecar.last_loss_applied_at,
        baseline_duration_s=baseline_duration,
        negotiated=setup.negotiate,
        negotiated_version=sidecar.negotiated_version,
        handshake_bytes=sidecar.handshake_bytes,
        assistance_started_s=sidecar.assistance_started_at,
        retransmitted_packets=sender.stats.retransmitted_packets,
        baseline_slack_s=baseline_slack,
        expected_negotiated_version=setup.expect_negotiated_version,
        expected_wire_version=setup.expect_wire_version,
        expect_no_resets=setup.expect_no_resets,
        expect_no_spurious=setup.expect_no_spurious,
        flowtable=table.stats_dict() if table is not None else None,
        overload_drivers=setup.overload.driver_stats()
        if setup.overload is not None else {},
        flowtable_expectations=setup.overload.expectations()
        if setup.overload is not None else {},
        link_drops=link_drops,
    )
    if obs.FLIGHT.armed:
        violations = result.violations()
        if violations:
            # Snapshot the trace ring (and the implicated packet's span
            # tree) the moment the failure is known, before the caller's
            # next run overwrites the evidence.
            obs.FLIGHT.trigger(
                "invariant-failure", scenario=setup.name, time=sim.now,
                detail=f"{len(violations)} invariant violation(s)",
                extra_records=[{"kind": "invariant-violation", "text": text}
                               for text in violations])
    return result


# -- named plans ----------------------------------------------------------------

@dataclass(frozen=True)
class ChaosPlan:
    """One replayable scenario: a setup factory plus its description.

    The factory takes the run seed and returns a fresh (stateful,
    seeded) setup; ``description`` is the one-liner the CLI's
    ``--list-plans`` prints; ``adversarial`` mirrors the setup's flag so
    callers can select the adversarial suite without building setups.
    """

    factory: Callable[[int], ChaosSetup]
    description: str
    adversarial: bool = False
    #: Mirrors ``setup.overload``: the plan pressures the shared flow
    #: table, so ``repro chaos overload`` can select the suite.
    overload: bool = False


def _crash_restart(seed: int) -> ChaosSetup:
    return ChaosSetup(name="crash-restart",
                      crashes=MiddleboxCrash(times=(0.4, 0.9)))


def _crash_resume(seed: int) -> ChaosSetup:
    return ChaosSetup(name="crash-resume",
                      crashes=MiddleboxCrash(times=(0.4, 0.9)),
                      checkpoint_interval_s=0.02,
                      defense=DefenseConfig())


def _blackout(seed: int) -> ChaosSetup:
    outage = Blackout([(0.3, 0.9)], kinds=SIDECAR_KINDS)
    return ChaosSetup(name="blackout",
                      faults_toward_client=outage,
                      faults_toward_server=outage)


def _corruption(seed: int) -> ChaosSetup:
    noise = Corruption(rate=0.25, seed=seed, kinds=SIDECAR_KINDS,
                       corrupter=sidecar_corrupter)
    return ChaosSetup(name="corruption",
                      faults_toward_client=noise,
                      faults_toward_server=noise)


def _duplication(seed: int) -> ChaosSetup:
    dupes = Duplication(rate=0.25, seed=seed, kinds=SIDECAR_KINDS)
    return ChaosSetup(name="duplication",
                      faults_toward_client=dupes,
                      faults_toward_server=dupes)


def _burst_loss(seed: int) -> ChaosSetup:
    bursts = BurstLoss([(0.3, 0.5), (0.8, 1.0)], rate=1.0, seed=seed,
                       kinds=SIDECAR_KINDS)
    return ChaosSetup(name="burst-loss",
                      faults_toward_client=bursts,
                      faults_toward_server=bursts)


def _delay_spike(seed: int) -> ChaosSetup:
    spike = DelaySpike([(0.3, 0.6)], extra_delay_s=0.08, kinds=SIDECAR_KINDS)
    return ChaosSetup(name="delay-spike",
                      faults_toward_client=spike,
                      faults_toward_server=spike)


def _lying_count(seed: int) -> ChaosSetup:
    liar = LyingCountAdversary(inflation=25)
    return ChaosSetup(name="lying-count", faults_toward_server=liar,
                      adversarial=True)


def _forged_power_sum(seed: int) -> ChaosSetup:
    forger = ForgedPowerSumAdversary(seed=seed)
    return ChaosSetup(name="forged-power-sum", faults_toward_server=forger,
                      adversarial=True)


def _replay(seed: int) -> ChaosSetup:
    replayer = ReplayAdversary(stride=2)
    return ChaosSetup(name="replay", faults_toward_server=replayer,
                      adversarial=True)


def _negotiate_down(seed: int) -> ChaosSetup:
    # The cross-version matrix's hard cell: a v2 consumer offering 1..2
    # meets an emitter that only speaks v1; they must agree on v1 and
    # the transfer must still complete, assisted.
    return ChaosSetup(name="negotiate-down",
                      negotiate=True,
                      emitter_capabilities=Capabilities(max_version=1),
                      expect_negotiated_version=1,
                      expect_wire_version=1,
                      defense=DefenseConfig())


def _version_skew(seed: int) -> ChaosSetup:
    # An emitter one version *ahead* of this build: negotiation clamps
    # to the highest version both sides actually speak.
    return ChaosSetup(name="version-skew",
                      negotiate=True,
                      emitter_capabilities=Capabilities(max_version=3),
                      expect_negotiated_version=2,
                      defense=DefenseConfig())


def _version_switch(seed: int) -> ChaosSetup:
    # Mid-connection upgrade: negotiate a v2 ceiling, run on v1, flip to
    # v2 at 0.6 s -- with zero resets and zero spurious retransmits.
    return ChaosSetup(name="version-switch",
                      negotiate=True,
                      version_switch_at=0.6,
                      version_switch_to=2,
                      expect_negotiated_version=2,
                      expect_wire_version=2,
                      expect_no_resets=True,
                      defense=DefenseConfig())


def _downgrade_strip(seed: int) -> ChaosSetup:
    # HELLOs ride the server->proxy direction (toward the client).
    return ChaosSetup(name="downgrade-strip",
                      negotiate=True,
                      faults_toward_client=HelloStripAdversary(),
                      adversarial=True)


def _downgrade_rewrite(seed: int) -> ChaosSetup:
    return ChaosSetup(name="downgrade-rewrite",
                      negotiate=True,
                      faults_toward_client=HelloRewriteAdversary(),
                      adversarial=True)


def _equivocation(seed: int) -> ChaosSetup:
    # Threshold must match the harness's emitter so the forgery is
    # structurally perfect; both directions carry the same instance (it
    # observes DATA toward the client, tampers quACKs toward the server).
    liar = EquivocationAdversary(threshold=16)
    return ChaosSetup(name="equivocation", faults_toward_client=liar,
                      faults_toward_server=liar, adversarial=True)


def _tenant_burst(seed: int) -> ChaosSetup:
    # Background load fills the table to its high-water mark; a burst
    # tenant then floods twice the table's capacity.  Admission control
    # must reject the flood while the primary transfer keeps assistance.
    overload = OverloadSpec(
        max_flows=48,
        drivers=[BackgroundLoad(seed=seed),
                 TenantBurst(at=0.3, flows=96, seed=seed + 1)],
        expect_rejections=True)
    return ChaosSetup(name="tenant-burst", overload=overload,
                      measure_baseline=True, expect_no_resets=True,
                      expect_no_spurious=True)


def _flow_churn_storm(seed: int) -> ChaosSetup:
    # Mass admit/close churn around the primary flow: the teardown path
    # (ledger forget, timer cancel/rearm) must not perturb assistance.
    overload = OverloadSpec(
        max_flows=128,
        drivers=[BackgroundLoad(seed=seed),
                 ChurnStorm(seed=seed + 2)])
    return ChaosSetup(name="flow-churn-storm", overload=overload,
                      measure_baseline=True, expect_no_resets=True,
                      expect_no_spurious=True)


def _memory_clamp(seed: int) -> ChaosSetup:
    # Host memory pressure clamps the primary tenant's budget to nothing
    # mid-transfer: the primary flow is evicted, its sender must fall
    # cleanly to E2E_ONLY and finish at unassisted goodput -- eviction
    # only ever *removes* assistance.
    overload = OverloadSpec(
        drivers=[BackgroundLoad(seed=seed),
                 MemoryClamp(at=0.4)],
        expect_evictions=True)
    return ChaosSetup(name="memory-clamp", overload=overload,
                      measure_baseline=True, expect_no_resets=True,
                      expect_no_spurious=True)


def _shed_under_adversary(seed: int) -> ChaosSetup:
    # Overload shedding while a lying sidecar tampers the quACK channel:
    # the shed pressure must demote idle background flows (never the
    # active primary) while the defense quarantines the liar.
    overload = OverloadSpec(
        max_flows=64,
        drivers=[BackgroundLoad(tenants=4, flows_per_tenant=15,
                                seed=seed)],
        expect_sheds=True)
    return ChaosSetup(name="shed-under-adversary", overload=overload,
                      faults_toward_server=LyingCountAdversary(inflation=25),
                      adversarial=True, expect_no_spurious=True)


#: Built-in scenarios: one per injector family, one per adversary, plus
#: the checkpoint/restore exercise.
PLANS: Mapping[str, ChaosPlan] = {
    "crash-restart": ChaosPlan(
        _crash_restart,
        "middlebox crashes wipe the emitter; healed by implicit resets"),
    "crash-resume": ChaosPlan(
        _crash_resume,
        "middlebox crashes restore from checkpoints and resume, no resets"),
    "blackout": ChaosPlan(
        _blackout,
        "sidecar channel goes dark for 0.6 s; ladder falls to e2e-only"),
    "corruption": ChaosPlan(
        _corruption,
        "25% of sidecar datagrams bit-flipped; classified as wire errors"),
    "duplication": ChaosPlan(
        _duplication,
        "25% of sidecar datagrams duplicated; harmless by idempotence"),
    "burst-loss": ChaosPlan(
        _burst_loss,
        "two total-loss bursts on the sidecar channel"),
    "delay-spike": ChaosPlan(
        _delay_spike,
        "80 ms delay spikes reorder sidecar datagrams"),
    "lying-count": ChaosPlan(
        _lying_count,
        "adversary inflates quACK counts; caught by plausibility gates",
        adversarial=True),
    "forged-power-sum": ChaosPlan(
        _forged_power_sum,
        "adversary forges power sums under honest counts; quarantined",
        adversarial=True),
    "replay": ChaosPlan(
        _replay,
        "adversary replays a captured snapshot between honest ones",
        adversarial=True),
    "equivocation": ChaosPlan(
        _equivocation,
        "adversary answers with another session's accumulator",
        adversarial=True),
    "negotiate-down": ChaosPlan(
        _negotiate_down,
        "v2 consumer meets v1-only emitter; negotiates down, completes"),
    "version-skew": ChaosPlan(
        _version_skew,
        "emitter claims a future v3; session clamps to mutual v2"),
    "version-switch": ChaosPlan(
        _version_switch,
        "mid-connection v1->v2 switch: no reset, no spurious retransmit"),
    "downgrade-strip": ChaosPlan(
        _downgrade_strip,
        "adversary strips capability offers; quarantined, goodput holds",
        adversarial=True),
    "downgrade-rewrite": ChaosPlan(
        _downgrade_rewrite,
        "adversary rewrites offers to pin v1; transcript hash catches it",
        adversarial=True),
    "tenant-burst": ChaosPlan(
        _tenant_burst,
        "tenant floods 2x table capacity; admission control rejects it",
        overload=True),
    "flow-churn-storm": ChaosPlan(
        _flow_churn_storm,
        "mass flow admit/close churn around an untouched primary flow",
        overload=True),
    "memory-clamp": ChaosPlan(
        _memory_clamp,
        "budget clamp evicts the primary flow; sender falls to e2e-only",
        overload=True),
    "shed-under-adversary": ChaosPlan(
        _shed_under_adversary,
        "load shedding under a lying sidecar; idle shed, liar quarantined",
        adversarial=True, overload=True),
}


def run_plan(name: str, seed: int = 1, **kwargs) -> ChaosResult:
    """Build and run one of the built-in plans by name."""
    try:
        plan = PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos plan {name!r}; have {', '.join(sorted(PLANS))}")
    return run_chaos_transfer(plan.factory(seed), seed=seed, **kwargs)


def result_to_dict(result: ChaosResult) -> dict:
    """Flatten a :class:`ChaosResult` into a JSON-safe dict.

    Enums become their string values and the transition audit trail a
    list of plain dicts, so the output survives ``json.dumps`` -- the
    contract of the :mod:`repro.sweep` spec entry points.
    """
    return {
        "plan": result.plan,
        "seed": result.seed,
        "total_bytes": result.total_bytes,
        "completed": result.completed,
        "duration_s": result.duration_s,
        "bytes_received": result.bytes_received,
        "emitter_epoch": result.emitter_epoch,
        "server_epoch": result.server_epoch,
        "health_final": result.health_final.value,
        "health_transitions": [
            {"time": hop.time, "old": hop.old.value, "new": hop.new.value,
             "reason": hop.reason}
            for hop in result.health_transitions],
        "server_counters": dict(result.server_counters),
        "emitter_counters": dict(result.emitter_counters),
        "injector_stats": {name: dataclasses.asdict(stats)
                           for name, stats in result.injector_stats.items()},
        "crashes": result.crashes,
        "faults_dropped": result.faults_dropped,
        "faults_corrupted": result.faults_corrupted,
        "faults_duplicated": result.faults_duplicated,
        "wire_errors_seen": result.wire_errors_seen,
        "control_corruptions_seen": result.control_corruptions_seen,
        "adversarial": result.adversarial,
        "faults_tampered": result.faults_tampered,
        "signals_by_kind": dict(result.signals_by_kind),
        "quarantined_at": result.quarantined_at,
        "last_loss_applied_at": result.last_loss_applied_at,
        "goodput_bps": result.goodput_bps,
        "baseline_duration_s": result.baseline_duration_s,
        "baseline_goodput_bps": result.baseline_goodput_bps,
        "negotiated": result.negotiated,
        "negotiated_version": result.negotiated_version,
        "handshake_bytes": result.handshake_bytes,
        "assistance_started_s": result.assistance_started_s,
        "retransmitted_packets": result.retransmitted_packets,
        "link_drops": result.link_drops,
        "baseline_slack_s": result.baseline_slack_s,
        "flowtable": result.flowtable,
        "overload_drivers": dict(result.overload_drivers),
        "invariant_violations": result.violations(),
        "ok": result.ok,
    }


def run_chaos_spec(params: dict) -> dict:
    """Spec entry point for :mod:`repro.sweep`: params dict -> result dict.

    ``params`` must carry a ``plan`` key naming one of :data:`PLANS`;
    the rest is forwarded to :func:`run_chaos_transfer`.
    """
    kwargs = dict(params)
    plan = kwargs.pop("plan")
    return result_to_dict(run_plan(plan, **kwargs))


def format_result(result: ChaosResult) -> str:
    """Human-readable report of one run, for the CLI and examples."""
    lines = [
        f"chaos plan: {result.plan} (seed {result.seed})",
        f"transfer: {'completed' if result.completed else 'INCOMPLETE'} "
        f"({result.bytes_received}/{result.total_bytes} bytes "
        f"in {result.duration_s:.2f} s)",
        f"epochs: emitter {result.emitter_epoch}, "
        f"server {result.server_epoch}",
        f"faults: dropped {result.faults_dropped}, "
        f"corrupted {result.faults_corrupted}, "
        f"duplicated {result.faults_duplicated}, "
        f"tampered {result.faults_tampered}, "
        f"crashes {result.crashes}",
        f"server counters: "
        + ", ".join(f"{k}={v}" for k, v in result.server_counters.items()),
        f"emitter counters: "
        + ", ".join(f"{k}={v}" for k, v in result.emitter_counters.items()),
    ]
    if result.negotiated:
        version = result.negotiated_version \
            if result.negotiated_version is not None else "never agreed"
        started = f"{result.assistance_started_s:.3f} s" \
            if result.assistance_started_s is not None else "never"
        lines.append(
            f"negotiation: version {version}, {result.handshake_bytes} "
            f"handshake bytes, assistance from {started}")
    if result.baseline_duration_s is not None:
        lines.append(
            f"goodput: {result.goodput_bps / 1e6:.2f} Mbps vs "
            f"{(result.baseline_goodput_bps or 0) / 1e6:.2f} Mbps unassisted "
            f"baseline")
    if result.flowtable is not None:
        table = result.flowtable
        lines.append(
            f"flow table: {table['flows']} resident "
            f"(peak {table['peak_flows']}), "
            f"admitted {table['flows_admitted']}, "
            f"rejected {table['flows_rejected']}, "
            f"evicted {table['flows_evicted']}, "
            f"shed {table['flows_shed']}, closed {table['flows_closed']}, "
            f"p99 emission latency "
            f"{table['emission_latency_p99_s'] * 1e3:.2f} ms")
    if result.adversarial:
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(result.signals_by_kind.items())) or "none"
        quarantined = f"{result.quarantined_at:.3f} s" \
            if result.quarantined_at is not None else "never"
        lines.append(f"adversarial signals: {kinds}")
        lines.append(f"quarantined at: {quarantined}")
    if result.health_transitions:
        lines.append("health transitions:")
        for hop in result.health_transitions:
            lines.append(f"  {hop.time:8.3f}s  {hop.old.value:>10s} -> "
                         f"{hop.new.value:<10s} ({hop.reason})")
    else:
        lines.append("health transitions: none (stayed healthy)")
    lines.append(f"final health: {result.health_final.value}")
    violations = result.violations()
    if violations:
        lines.append("INVARIANT VIOLATIONS:")
        lines.extend(f"  - {violation}" for violation in violations)
    else:
        lines.append("invariants: all held")
    return "\n".join(lines)
