"""The chaos harness: scripted adverse scenarios with invariant checks.

A :class:`ChaosSetup` says what goes wrong -- fault injectors on the
sidecar channel, scheduled middlebox crashes, flow-table overload, a
version switch -- and what must hold.  It is an *overlay* on a row of
the assisted path (:mod:`repro.sidecar.path`, where rows and overlays
are described), which the path's builder applies once;
:func:`run_chaos_transfer` runs a setup on the canonical row.  The
harness collects everything a robustness argument needs into a
:class:`ChaosResult` and checks the paper's core promise as
machine-verifiable invariants (:meth:`ChaosResult.violations`):

* the base transport delivered every byte end-to-end;
* emitter and consumer epochs converged;
* every corrupted datagram that arrived was classified as wire
  corruption (checksum), never silently mis-decoded.

Adversarial plans (built on :mod:`repro.chaos.adversary`) add the
defense invariants: the transfer still completes at no less than the
*unassisted baseline* goodput (the same row with its agents off), the
lying sidecar lands in QUARANTINED, and no quACK-decoded loss touches
the sender after the quarantine verdict.  The ``crash-resume`` plan
exercises checkpoint/restore instead: crashes heal through the resume
handshake with zero resets.

Named plans (:data:`PLANS`: one row each -- name, one-line description,
setup builder) make scenarios replayable from tests, the CLI
(``python -m repro chaos <plan>``), and ``examples/failure_modes.py``.
Adding a plan is adding a row.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping

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
from repro.netsim.faults import (
    SIDECAR_KINDS,
    Blackout,
    BurstLoss,
    Corruption,
    DelaySpike,
    Duplication,
    FaultInjector,
)
from repro.sidecar.health import HealthConfig, HealthState, HealthTransition
from repro.sidecar.negotiate import Capabilities
from repro.sidecar.path import (
    THRESHOLD,
    Agents,
    canonical_row,
    completion_time,
    run_row,
)
from repro.transport.connection import Transfer

#: Default transfer: ~876 KB, about 1.5 s on the canonical path.
DEFAULT_TOTAL = 1460 * 600

#: Virtual seconds the simulation keeps running after completion.
DRAIN_S = 3.0

#: The health ladder every chaos run uses, tuned to the scenarios'
#: timescales (staleness after 0.25 s, probation 0.25 s).
HEALTH = HealthConfig(degrade_after=2, e2e_only_after=6,
                      stale_after=0.25, probation=0.25)


@dataclass
class ChaosSetup:
    """What goes wrong: an overlay on one row of the assisted path.

    ``faults_toward_client`` rides the row's sidecar hop in the
    server-to-client direction (the one reset/config handshakes
    travel); ``faults_toward_server`` rides its reverse (the one quACKs
    travel).  The same injector instance may serve both.  ``crashes``
    wipe the row's emitter at fixed times.

    A setup is ``adversarial`` when one of its injectors *lies* rather
    than breaks; the harness then checks the defense invariants.
    ``checkpoint_interval_s`` arms emitter checkpoint/restore with a
    :class:`~repro.sidecar.snapshot.CheckpointStore` so crashes heal
    through the resume handshake instead of the reset protocol.  The
    plausibility defense is armed, and the unassisted baseline measured,
    whenever there is something for it to vet: an adversary, a resume
    offer, or a negotiation transcript.
    """

    name: str = "custom"
    faults_toward_client: FaultInjector | None = None
    faults_toward_server: FaultInjector | None = None
    crashes: MiddleboxCrash | None = None
    checkpoint_interval_s: float | None = None
    #: Arm the HELLO/HELLO-ACK capability handshake on both agents.
    #: ``emitter_capabilities`` overrides the emitter's defaults
    #: (cross-version matrix, version skew).
    negotiate: bool = False
    emitter_capabilities: Capabilities | None = None
    #: Schedule a mid-connection VERSION-SWITCH to v2 at this simulated
    #: time (negotiation must be armed).
    version_switch_at: float | None = None
    #: Route the proxy tap through a shared multi-tenant flow table and
    #: arm the spec's overload drivers against it (tenant ``primary``).
    #: The overload contract is then checked with no adversary needed:
    #: goodput >= the unassisted baseline, and every retransmission
    #: backed by a real drop.
    overload: OverloadSpec | None = None
    #: Extra invariants the run must satisfy.
    expect_negotiated_version: int | None = None
    expect_wire_version: int | None = None
    #: Zero resets, and with them zero spurious retransmits.
    expect_no_resets: bool = False

    def __post_init__(self) -> None:
        if self.version_switch_at is not None and not self.negotiate:
            raise ValueError(
                "version_switch_at needs negotiation armed on the setup")

    @property
    def injectors(self) -> list[FaultInjector]:
        """The fault injectors, each once (one may serve both ways)."""
        return list(dict.fromkeys(
            injector for injector in (self.faults_toward_client,
                                      self.faults_toward_server)
            if injector is not None))

    @property
    def liars(self) -> list[FaultInjector]:
        """The injectors that lie: every :mod:`repro.chaos.adversary`
        class carries ``adversarial = True``."""
        return [injector for injector in self.injectors
                if getattr(injector, "adversarial", False)]

    @property
    def adversarial(self) -> bool:
        return bool(self.liars)

    @property
    def defended(self) -> bool:
        """Is there something for the plausibility defense to vet?"""
        return (self.adversarial or self.negotiate
                or self.checkpoint_interval_s is not None)

    @property
    def wants_baseline(self) -> bool:
        """The goodput floor is checked with the defense armed or the
        flow table under overload."""
        return self.defended or self.overload is not None

    def arm(self, transfer: Transfer, agents: Agents | None) -> None:
        """After the row attached its agents: the version switch, the
        crashes on its emitter, the overload drivers on its table.

        The defense, negotiation, checkpoints and flow table are built
        into the agents by :func:`~repro.sidecar.path.canonical_row`
        alone; a setup that needs one the agents lack is refused.
        """
        if agents is None:
            raise ValueError(f"setup {self.name!r} needs the row's agents on")
        lacking = [what for what, wanted, armed in (
            ("the defense", self.defended, agents.consumer.ledger),
            ("negotiation", self.negotiate, agents.consumer.handshake),
            ("checkpoints", self.checkpoint_interval_s is not None,
             agents.emitter.checkpoints),
            ("a flow table", self.overload is not None,
             getattr(agents.emitter, "table", None)),
        ) if wanted and armed is None]
        if lacking:
            raise ValueError(f"setup {self.name!r} needs {', '.join(lacking)}"
                             f", which the row's agents lack")
        sim = transfer.sim
        if self.version_switch_at is not None:
            sim.schedule(self.version_switch_at,
                         agents.consumer.request_version_switch, 2)  # v1 -> v2
        if self.crashes is not None:
            self.crashes.arm(sim, agents.emitter)
        if self.overload is not None:
            for driver in self.overload.drivers:
                driver.arm(sim, agents.emitter.table, agents.emitter)

    def verdict(self, seed: int, baseline: float | None,
                transfer: Transfer, agents: Agents) -> ChaosResult:
        """What the stopped run did (a row's ``read``, with the run's
        ``seed`` and unassisted ``baseline`` duration bound), read after
        a ``DRAIN_S`` drain that lets in-flight handshakes (reset
        retries) converge the epochs.

        Health is judged at completion time: once the transfer is done,
        quACKs legitimately stop, so anything later would read as
        "stale".
        """
        sim, sender, receiver = transfer.sim, transfer.sender, \
            transfer.receiver
        tap, sidecar = agents.emitter, agents.consumer
        completed = sender.complete and receiver.complete
        # The run stops at a slice boundary; the receiver's completion
        # time is what the baseline comparison can resolve a slowdown
        # against.
        duration = completion_time(transfer, agents)
        health_final = sidecar.health_state
        transitions = list(sidecar.monitor.stats.transitions) \
            if sidecar.monitor is not None else []
        sim.run(until=sim.now + DRAIN_S)

        # An adversary's replacements are checksum-valid forgeries, not
        # corruption: they must never satisfy (nor trip) the wire-error
        # classification invariant, so they are tallied separately.  An
        # adversary's *drops* are tampering too (targeted suppression --
        # e.g. stripping capability offers), unlike a fault injector's
        # indiscriminate loss.
        injectors, liars = self.injectors, self.liars
        # Negotiation (and switch) control traffic shares the server's
        # link with DATA; its serialization time is time the baseline
        # never spent, so the goodput floor is allowed exactly that much
        # slack.
        baseline_slack = 0.0
        if self.negotiate:
            baseline_slack = (8 * (sidecar.handshake_bytes + 256)
                              / transfer.topology.links_up[0].bandwidth_bps
                              ) + 2e-3
        table = getattr(tap, "table", None)
        result = ChaosResult(
            setup=self,
            seed=seed,
            total_bytes=receiver.total_bytes,
            completed=completed,
            duration_s=duration,
            bytes_received=receiver.stats.bytes_received,
            emitter_epoch=tap.epoch,
            server_epoch=sidecar.epoch,
            health_final=health_final,
            health_transitions=transitions,
            server_counters=sidecar.fault_counters(),
            emitter_counters=tap.fault_counters(),
            injector_stats={i.name: i.stats for i in injectors},
            crashes=self.crashes.crashes if self.crashes is not None else 0,
            faults_dropped=sum(i.stats.dropped for i in injectors),
            faults_corrupted=sum(i.stats.corrupted for i in injectors
                                 if i not in liars),
            faults_duplicated=sum(i.stats.duplicated for i in injectors),
            wire_errors_seen=sidecar.stats.wire_errors,
            control_corruptions_seen=tap.corrupt_frames,
            faults_tampered=sum(i.stats.corrupted + i.stats.dropped
                                for i in liars),
            signals_by_kind=sidecar.ledger.by_kind()
            if sidecar.ledger is not None else {},
            quarantined_at=next(
                (hop.time for hop in transitions
                 if hop.new is HealthState.QUARANTINED), None),
            last_loss_applied_at=sidecar.last_loss_applied_at,
            baseline_duration_s=baseline,
            negotiated_version=sidecar.negotiated_version,
            handshake_bytes=sidecar.handshake_bytes,
            assistance_started_s=sidecar.assistance_started_at,
            retransmitted_packets=sender.stats.retransmitted_packets,
            link_drops=sum(
                link.stats.dropped_queue + link.stats.dropped_loss
                + link.stats.dropped_fault
                for link in transfer.topology.links_up
                + transfer.topology.links_down),
            baseline_slack_s=baseline_slack,
            flowtable=table.stats_dict() if table is not None else None,
            overload_drivers={type(driver).__name__: driver.stats
                              for driver in self.overload.drivers}
            if self.overload is not None else {},
        )
        if obs.FLIGHT.armed:
            violations = result.violations()
            if violations:
                # Snapshot the trace ring (and the implicated packet's
                # span tree) the moment the failure is known, before the
                # caller's next run overwrites the evidence.
                obs.FLIGHT.trigger(
                    "invariant-failure", scenario=self.name, time=sim.now,
                    detail=f"{len(violations)} invariant violation(s)",
                    extra_records=[{"kind": "invariant-violation",
                                    "text": text} for text in violations])
        return result


@dataclass
class ChaosResult:
    """Everything one chaos run produced, plus the invariant verdicts.

    ``setup`` is the scenario that ran -- its name, its ``adversarial``
    and ``negotiate`` flags and its ``expect_*`` invariants are read
    from it, not copied here.
    """

    setup: ChaosSetup
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
    faults_tampered: int
    signals_by_kind: dict
    quarantined_at: float | None
    last_loss_applied_at: float | None
    baseline_duration_s: float | None
    negotiated_version: int | None
    handshake_bytes: int
    assistance_started_s: float | None
    retransmitted_packets: int
    #: Real datagram drops across every link (queue overflow, channel
    #: loss, injected faults) -- the ceiling "zero *spurious*
    #: retransmits" is judged against: every retransmission must be
    #: backed by an actual drop, none caused by protocol state churn.
    link_drops: int
    #: Serialization time the handshake (and switch) traffic stole from
    #: DATA on the shared forward link, plus scheduling epsilon; the
    #: baseline comparison allows exactly this much.
    baseline_slack_s: float
    #: Flow-table stats of an overload run (None without a table) and
    #: the per-driver stats.
    flowtable: dict | None
    overload_drivers: dict

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
        setup = self.setup
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
        if setup.adversarial:
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
        if (setup.expect_negotiated_version is not None
                and self.negotiated_version
                != setup.expect_negotiated_version):
            problems.append(
                f"negotiated version {self.negotiated_version}, expected "
                f"{setup.expect_negotiated_version}")
        if setup.expect_wire_version is not None:
            for side in ("server_counters", "emitter_counters"):
                got = getattr(self, side).get("wire_version")
                if got != setup.expect_wire_version:
                    problems.append(
                        f"{side.split('_')[0]} wire version {got}, expected "
                        f"{setup.expect_wire_version} after the switch")
        if setup.expect_no_resets:
            resets = self.server_counters.get("resets_initiated", 0)
            if resets:
                problems.append(
                    f"{resets} resets initiated in a run promised reset-free")
        if setup.expect_no_resets or setup.overload is not None:
            # Congestion losses are the transport's business; what a
            # version switch or an eviction must never do is trigger
            # retransmissions of packets that were actually delivered
            # (a mis-decode or state loss would).  Every retransmission
            # therefore needs a real drop behind it -- also for eviction
            # plans that *do* heal through a reset.
            if self.retransmitted_packets > self.link_drops:
                problems.append(
                    f"{self.retransmitted_packets - self.link_drops} "
                    f"spurious retransmissions: {self.retransmitted_packets} "
                    f"retransmitted vs {self.link_drops} real datagram "
                    f"drops on the path")
        if self.flowtable is not None:
            # An overload plan that never overloads proves nothing: the
            # spec's expected pressure valves must actually have fired.
            spec = setup.overload
            for expected, kind, key in (
                    (spec.expect_rejections, "rejections", "flows_rejected"),
                    (spec.expect_evictions, "evictions", "flows_evicted"),
                    (spec.expect_sheds, "sheds", "flows_shed")):
                if expected and self.flowtable.get(key, 0) < 1:
                    problems.append(
                        f"expected {kind} under overload but "
                        f"{key} stayed 0")
        return problems

    @property
    def ok(self) -> bool:
        return not self.violations()


def run_chaos_transfer(setup: ChaosSetup, *,
                       seed: int = 1,
                       total_bytes: int = DEFAULT_TOTAL) -> ChaosResult:
    """Run the canonical row (:func:`~repro.sidecar.path.canonical_row`)
    under ``setup``, with the :data:`HEALTH` ladder.

    Setups with the defense armed or a flow table under ``overload``
    also measure the unassisted baseline, so the result can answer the
    robustness question: did assistance under pressure ever cost
    goodput?
    """
    baseline = None
    if setup.wants_baseline:
        # The yardstick, not part of the scenario: untraced, and before
        # the main run's Transfer restarts the packet uids.
        was_tracing, obs.TRACER.enabled = obs.TRACER.enabled, False
        try:
            baseline = run_row(
                canonical_row(setup, total_bytes, HEALTH, False), None)
        finally:
            obs.TRACER.enabled = was_tracing
    row = canonical_row(setup, total_bytes, HEALTH, True)
    row.read = partial(setup.verdict, seed, baseline)
    return run_row(row, setup)


# -- named plans ----------------------------------------------------------------

@dataclass(frozen=True)
class ChaosPlan:
    """One replayable scenario: its description and its setup builder.

    ``description`` is the one-liner the CLI's ``--list-plans`` prints;
    ``build`` takes the run seed and returns a fresh (stateful, seeded)
    setup.  Which suites a plan belongs to is read off the setup it
    builds, so the row cannot disagree with it.
    """

    description: str
    build: Callable[[int], ChaosSetup]

    @property
    def adversarial(self) -> bool:
        return self.build(0).adversarial

    @property
    def overload(self) -> bool:
        """The plan pressures the shared flow table."""
        return self.build(0).overload is not None


def _both_ways(injector: FaultInjector) -> ChaosSetup:
    """One injector instance on both directions of the sidecar hop."""
    return ChaosSetup(faults_toward_client=injector,
                      faults_toward_server=injector)


#: Built-in scenarios: one per injector family, one per adversary, the
#: checkpoint/restore exercise, the negotiation matrix, and the
#: flow-table overload suite.
PLANS: Mapping[str, ChaosPlan] = {
    "crash-restart": ChaosPlan(
        "middlebox crashes wipe the emitter; healed by implicit resets",
        lambda seed: ChaosSetup(crashes=MiddleboxCrash(times=(0.4, 0.9)))),
    "crash-resume": ChaosPlan(
        "middlebox crashes restore from checkpoints and resume, no resets",
        lambda seed: ChaosSetup(crashes=MiddleboxCrash(times=(0.4, 0.9)),
                                checkpoint_interval_s=0.02)),
    "blackout": ChaosPlan(
        "sidecar channel goes dark for 0.6 s; ladder falls to e2e-only",
        lambda seed: _both_ways(
            Blackout([(0.3, 0.9)], kinds=SIDECAR_KINDS))),
    "corruption": ChaosPlan(
        "25% of sidecar datagrams bit-flipped; classified as wire errors",
        lambda seed: _both_ways(
            Corruption(rate=0.25, seed=seed, kinds=SIDECAR_KINDS,
                       corrupter=sidecar_corrupter))),
    "duplication": ChaosPlan(
        "25% of sidecar datagrams duplicated; harmless by idempotence",
        lambda seed: _both_ways(
            Duplication(rate=0.25, seed=seed, kinds=SIDECAR_KINDS))),
    "burst-loss": ChaosPlan(
        "two total-loss bursts on the sidecar channel",
        lambda seed: _both_ways(
            BurstLoss([(0.3, 0.5), (0.8, 1.0)], rate=1.0, seed=seed,
                      kinds=SIDECAR_KINDS))),
    "delay-spike": ChaosPlan(
        "80 ms delay spikes reorder sidecar datagrams",
        lambda seed: _both_ways(
            DelaySpike([(0.3, 0.6)], extra_delay_s=0.08,
                       kinds=SIDECAR_KINDS))),
    "lying-count": ChaosPlan(
        "adversary inflates quACK counts; caught by plausibility gates",
        lambda seed: ChaosSetup(
            faults_toward_server=LyingCountAdversary(inflation=25))),
    "forged-power-sum": ChaosPlan(
        "adversary forges power sums under honest counts; quarantined",
        lambda seed: ChaosSetup(
            faults_toward_server=ForgedPowerSumAdversary(seed=seed))),
    "replay": ChaosPlan(
        "adversary replays a captured snapshot between honest ones",
        lambda seed: ChaosSetup(
            faults_toward_server=ReplayAdversary(stride=2))),
    # The threshold must match the harness's emitter so the forgery is
    # structurally perfect; both directions carry the same instance (it
    # observes DATA toward the client, tampers quACKs toward the server).
    "equivocation": ChaosPlan(
        "adversary answers with another session's accumulator",
        lambda seed: _both_ways(EquivocationAdversary(threshold=THRESHOLD))),
    # The cross-version matrix's hard cell: a v2 consumer offering 1..2
    # meets an emitter that only speaks v1; they must agree on v1 and
    # the transfer must still complete, assisted.
    "negotiate-down": ChaosPlan(
        "v2 consumer meets v1-only emitter; negotiates down, completes",
        lambda seed: ChaosSetup(
            negotiate=True,
            emitter_capabilities=Capabilities(max_version=1),
            expect_negotiated_version=1, expect_wire_version=1)),
    # An emitter one version *ahead* of this build: negotiation clamps
    # to the highest version both sides actually speak.
    "version-skew": ChaosPlan(
        "emitter claims a future v3; session clamps to mutual v2",
        lambda seed: ChaosSetup(
            negotiate=True,
            emitter_capabilities=Capabilities(max_version=3),
            expect_negotiated_version=2)),
    # Mid-connection upgrade: negotiate a v2 ceiling, run on v1, flip to
    # v2 at 0.6 s -- with zero resets and zero spurious retransmits.
    "version-switch": ChaosPlan(
        "mid-connection v1->v2 switch: no reset, no spurious retransmit",
        lambda seed: ChaosSetup(
            negotiate=True, version_switch_at=0.6,
            expect_negotiated_version=2, expect_wire_version=2,
            expect_no_resets=True)),
    # HELLOs ride the server->proxy direction (toward the client).
    "downgrade-strip": ChaosPlan(
        "adversary strips capability offers; quarantined, goodput holds",
        lambda seed: ChaosSetup(
            negotiate=True, faults_toward_client=HelloStripAdversary())),
    "downgrade-rewrite": ChaosPlan(
        "adversary rewrites offers to pin v1; transcript hash catches it",
        lambda seed: ChaosSetup(
            negotiate=True, faults_toward_client=HelloRewriteAdversary())),
    # Background load fills the table to its high-water mark; a burst
    # tenant then floods twice the table's capacity.  Admission control
    # must reject the flood while the primary transfer keeps assistance.
    "tenant-burst": ChaosPlan(
        "tenant floods 2x table capacity; admission control rejects it",
        lambda seed: ChaosSetup(
            overload=OverloadSpec(
                max_flows=48,
                drivers=[BackgroundLoad(seed=seed),
                         TenantBurst(at=0.3, flows=96, seed=seed + 1)],
                expect_rejections=True),
            expect_no_resets=True)),
    # Mass admit/close churn around the primary flow: the teardown path
    # (ledger forget, timer cancel/rearm) must not perturb assistance.
    "flow-churn-storm": ChaosPlan(
        "mass flow admit/close churn around an untouched primary flow",
        lambda seed: ChaosSetup(
            overload=OverloadSpec(
                max_flows=128,
                drivers=[BackgroundLoad(seed=seed),
                         ChurnStorm(seed=seed + 2)]),
            expect_no_resets=True)),
    # Host memory pressure clamps the primary tenant's budget to nothing
    # mid-transfer: the primary flow is evicted, its sender must fall
    # cleanly to E2E_ONLY and finish at unassisted goodput -- eviction
    # only ever *removes* assistance.
    "memory-clamp": ChaosPlan(
        "budget clamp evicts the primary flow; sender falls to e2e-only",
        lambda seed: ChaosSetup(
            overload=OverloadSpec(
                drivers=[BackgroundLoad(seed=seed), MemoryClamp(at=0.4)],
                expect_evictions=True),
            expect_no_resets=True)),
    # Overload shedding while a lying sidecar tampers the quACK channel:
    # the shed pressure must demote idle background flows (never the
    # active primary) while the defense quarantines the liar.
    "shed-under-adversary": ChaosPlan(
        "load shedding under a lying sidecar; idle shed, liar quarantined",
        lambda seed: ChaosSetup(
            overload=OverloadSpec(
                max_flows=64,
                drivers=[BackgroundLoad(tenants=4, flows_per_tenant=15,
                                        seed=seed)],
                expect_sheds=True),
            faults_toward_server=LyingCountAdversary(inflation=25))),
}


def run_plan(plan: str, seed: int = 1, **kwargs: Any) -> ChaosResult:
    """Build and run one of the built-in plans by name.

    Keywords go to :func:`run_chaos_transfer`; a ``chaos`` sweep cell's
    parameters (``plan``, ``total_bytes``, ...) are this call's keywords.
    """
    try:
        row = PLANS[plan]
    except KeyError:
        raise ValueError(
            f"unknown chaos plan {plan!r}; have {', '.join(sorted(PLANS))}")
    setup = dataclasses.replace(row.build(seed), name=plan)
    return run_chaos_transfer(setup, seed=seed, **kwargs)


def _plain(value: Any) -> Any:
    """Enums to their values, dataclasses and containers to JSON types."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {spec.name: _plain(getattr(value, spec.name))
                for spec in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def result_to_dict(result: ChaosResult) -> dict:
    """Flatten a :class:`ChaosResult` into a JSON-safe dict.

    Every field but the setup itself, flattened by :func:`_plain` so the
    output survives ``json.dumps`` (the contract of a :mod:`repro.sweep`
    cell result), plus what is read off the setup and the derived
    verdicts.
    """
    flat = {spec.name: _plain(getattr(result, spec.name))
            for spec in dataclasses.fields(result) if spec.name != "setup"}
    flat.update(
        plan=result.setup.name,
        adversarial=result.setup.adversarial,
        negotiated=result.setup.negotiate,
        goodput_bps=result.goodput_bps,
        baseline_goodput_bps=result.baseline_goodput_bps,
        invariant_violations=result.violations(),
        ok=result.ok)
    return flat


def format_result(result: ChaosResult) -> str:
    """Human-readable report of one run, for the CLI and examples."""
    lines = [
        f"chaos plan: {result.setup.name} (seed {result.seed})",
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
    if result.setup.negotiate:
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
    if result.setup.adversarial:
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
