"""Sidecar agents: the glue between quACK state machines and the network.

Table 1 assigns two roles -- *sends quACKs* and *receives quACKs* -- to
server, proxy and client; each role is written here once:

* :class:`EmitterEndpoint` -- the sending role: folds a flow's
  identifiers into a :class:`~repro.sidecar.emitter.QuackEmitter` at one
  node and quACKs them to a sidecar peer under a frequency policy, with
  an optional periodic timer.  :class:`HostEmitterAgent` (the
  client-side library) attaches one to a host's DATA arrivals and
  :class:`ProxyEmitterTap` (a pure-observer proxy, the ACK-reduction
  proxy of Section 2.2) to the DATA a router forwards toward the client.
* :class:`ServerSidecar` -- the receiving role on the server: logs every
  packet the transport sends, consumes quACKs arriving at the server,
  and feeds the decoded receipts/losses into the
  :class:`~repro.transport.connection.SenderConnection` window hooks.

Protocol-specific proxies (the pacing proxy of congestion-control
division and the buffering retransmitter) live in their own modules and
hold an :class:`EmitterEndpoint` for the quACKs they send.

Resilience: a sidecar is strictly optional assistance, so every agent
here must survive a hostile channel -- corrupted datagrams are counted
and dropped (:class:`~repro.sidecar.protocol.CorruptFrame` /
``WireFormatError``), stale resets are ignored, a crashed-and-restarted
emitter is detected by the server through count regression and healed by
an implicit reset, lost reset handshakes are retried with exponential
backoff, and a :class:`~repro.sidecar.health.HealthMonitor` (opt-in via
``health=HealthConfig()``) walks the sender down the degradation ladder
to pure end-to-end behavior when the channel goes bad.  Every agent
exposes its fault counters through ``fault_counters()``.

Two opt-in layers harden this further.  Passing
``defense=DefenseConfig()`` to :class:`ServerSidecar` arms the
plausibility validator and quarantine ledger of
:mod:`repro.sidecar.defense` -- every quACK must pass the
honest-observer gates before it may touch the consumer, and a sidecar
caught lying is QUARANTINED (no signals, no resets it could farm for
stalls).  Passing a :class:`~repro.sidecar.snapshot.CheckpointStore` to
an emitter endpoint makes it checkpoint its accumulator periodically and,
after ``crash_restart()``, restore the latest checkpoint and announce
itself with a :class:`~repro.sidecar.protocol.ResumeMessage` instead of
forcing the full reset round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import QuackError, WireFormatError
from repro.netsim.core import Simulator
from repro.netsim.node import Host, Node, Router
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.base import DecodeStatus
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import QuackConsumer
from repro.sidecar.defense import (
    AdversarialSignal,
    DefenseConfig,
    PlausibilityValidator,
    QuarantineLedger,
    SignalKind,
)
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.frequency import FrequencyPolicy
from repro.sidecar.health import HealthConfig, HealthMonitor, HealthState
from repro.sidecar.negotiate import (
    FEATURE_VERSION_SWITCH,
    NegotiateConfig,
    hello_transcript,
    respond,
)
from repro.sidecar.protocol import (
    ControlMessage,
    CorruptFrame,
    HelloAckMessage,
    HelloMessage,
    QuackMessage,
    ResetMessage,
    ResumeMessage,
    VersionSwitchMessage,
    control_packet,
    quack_packet,
)
from repro.sidecar.snapshot import (
    CheckpointStore,
    EmitterCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.transport.connection import SenderConnection, SentPacketRecord

#: Default quACK threshold, the paper's running configuration (t=20).
DEFAULT_THRESHOLD = 20


class EmitterEndpoint:
    """Table 1's *sends quACKs* role: one flow, one node, one peer.

    Folds the flow's identifiers into a
    :class:`~repro.sidecar.emitter.QuackEmitter` at ``node`` (a host or a
    router) and sends the snapshots its frequency policy calls for to
    ``peer``, on a reusable emission clock when the policy is
    timer-driven.  It is also the responder side of everything the
    receiving role can ask of it: reset epochs, crash/restart with
    checkpoint resume, HELLO negotiation and mid-session version
    switches.  Where the observations come from is the only thing the
    protocols vary: :class:`HostEmitterAgent` and
    :class:`ProxyEmitterTap` attach an endpoint to a host handler or a
    router tap and filter; the pacing and retransmission proxies hold a
    plain endpoint and feed it the packets they forward.

    ``role`` labels the ``sidecar.quack_emit`` trace event.  ``ledger_key``
    names the accumulator in the per-flow resource ledger where one flow
    has more than one (default: ``flow_id``).
    """

    def __init__(self, sim: Simulator, node: Node, peer: str, flow_id: str,
                 policy: FrequencyPolicy, role: str,
                 threshold: int = DEFAULT_THRESHOLD, bits: int = 32,
                 checkpoints: CheckpointStore | None = None,
                 checkpoint_interval_s: float = 0.05,
                 negotiate: NegotiateConfig | None = None,
                 ledger_key: str | None = None) -> None:
        self.sim = sim
        self.node = node
        self.peer = peer
        self.flow_id = flow_id
        self.role = role
        self.threshold = threshold
        self.bits = bits
        self.policy = policy
        self._ledger_key = ledger_key if ledger_key is not None else flow_id
        self.emitter = self._fresh_emitter()
        self.quacks_sent = 0
        self.epoch = 0
        self.resets_applied = 0
        self.stale_resets = 0
        self.corrupt_frames = 0
        self.restarts = 0
        self.checkpoints: CheckpointStore | None = None
        self.checkpoint_interval_s = 0.0
        self.checkpoints_taken = 0
        self.checkpoint_restores = 0
        self.checkpoint_corrupt = 0
        # -- negotiation state (responder side) --
        self.negotiate_config: NegotiateConfig | None = None
        self.negotiated = True  # un-negotiated sessions assist immediately
        self.negotiated_version = 1
        self.negotiated_features = 0
        self.wire_version = 1
        self.wire_features = 0
        self.hello_acks_sent = 0
        self.version_switches = 0
        self.stale_switches = 0
        self.quacks_suppressed = 0
        self._arm_negotiation(negotiate)
        self._arm_checkpoints(checkpoints, checkpoint_interval_s)
        interval = policy.interval_hint()
        if interval is not None:
            # The emission clock lives on one reusable timer for the
            # endpoint's whole life (one wheel-slot insert per tick).
            self._tick_timer = sim.timer(self._tick, interval)
            self._tick_timer.rearm(interval)

    def _fresh_emitter(self) -> QuackEmitter:
        return QuackEmitter(self.threshold, self.bits, policy=self.policy,
                            flow=self._ledger_key)

    # -- observe and emit --------------------------------------------------------

    def on_data(self, packet: Packet) -> None:
        """Fold one DATA packet of the flow; send a quACK if one is due."""
        snapshot = self.emitter.observe(packet.identifier, self.sim.now,
                                        ctx=packet.trace_ctx,
                                        flow=self.flow_id)
        if snapshot is not None:
            self._send(snapshot)

    def _tick(self, interval: float) -> None:
        if self.emitter.pending_packets:
            self._send(self.emitter.emit(self.sim.now))
        self._tick_timer.rearm(interval)

    def _send(self, snapshot: PowerSumQuack) -> None:
        if not self.negotiated:
            # Assistance is opt-in: no quACKs before the handshake
            # completes (identifiers keep accumulating meanwhile).
            self.quacks_suppressed += 1
            return
        self.quacks_sent += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.quack_emit", self.sim.now,
                            role=self.role, flow=self.flow_id,
                            epoch=self.epoch)
        self.node.send(quack_packet(self.node.name, self.peer, snapshot,
                                    self.flow_id, self.sim.now,
                                    epoch=self.epoch,
                                    version=self.wire_version,
                                    features=self.wire_features))

    def _send_control_message(self, message: ControlMessage) -> None:
        self.node.send(control_packet(self.node.name, self.peer, message,
                                      self.sim.now, version=self.wire_version,
                                      features=self.wire_features))

    # -- negotiation (responder side) --------------------------------------------

    def _arm_negotiation(self, config: NegotiateConfig | None) -> None:
        if config is None:
            return
        self.negotiate_config = config
        self.negotiated = False  # no assistance before the handshake

    def _on_hello(self, hello: HelloMessage) -> None:
        config = self.negotiate_config
        if config is None:
            return  # legacy peer: negotiation not armed here
        ack = respond(hello, config.capabilities)
        if ack is None:
            return  # no version overlap: stay silent, never assist
        if not self.negotiated:
            self.negotiated = True
            self.negotiated_version = ack.version
            self.negotiated_features = ack.features
            if ((ack.threshold, ack.bits) != (self.threshold, self.bits)
                    and self.emitter.quack.count == 0):
                # Adopt the negotiated parameters -- but only while the
                # accumulator is empty; once identifiers are folded in,
                # rebuilding it would orphan them in the peer's log.
                self.threshold, self.bits = ack.threshold, ack.bits
                self.emitter = self._fresh_emitter()
            if obs.TRACER.enabled:
                obs.TRACER.emit("sidecar.negotiated", self.sim.now,
                                flow=self.flow_id, role="emitter",
                                version=ack.version, features=ack.features)
        # Re-ack duplicates: the initiator retries lost offers, and the
        # answer to every retry must be byte-identical (idempotent).
        self.hello_acks_sent += 1
        self._send_control_message(ack)

    def _on_version_switch(self, switch: VersionSwitchMessage) -> None:
        if (not self.negotiated
                or switch.epoch != self.epoch
                or not 1 <= switch.version <= self.negotiated_version):
            # A stale switch (pre-reset epoch) or one above the
            # negotiated ceiling must not flip the session.
            self.stale_switches += 1
            return
        if switch.version == self.wire_version:
            return  # duplicate delivery (idempotent)
        self.wire_version = switch.version
        self.wire_features = self.negotiated_features & 0xFF \
            if switch.version >= 2 else 0
        self.version_switches += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.version_switch", self.sim.now,
                            flow=self.flow_id, role="emitter",
                            version=switch.version, epoch=switch.epoch)

    # -- checkpoint/restore ----------------------------------------------------

    def _arm_checkpoints(self, store: CheckpointStore | None,
                         interval_s: float) -> None:
        if store is None:
            return
        if interval_s <= 0:
            raise ValueError(
                f"checkpoint interval must be > 0, got {interval_s}")
        self.checkpoints = store
        self.checkpoint_interval_s = interval_s
        self._checkpoint_timer = self.sim.timer(self._checkpoint_tick)
        self._checkpoint_timer.rearm(interval_s)

    def _checkpoint_tick(self) -> None:
        self._take_checkpoint()
        self._checkpoint_timer.rearm(self.checkpoint_interval_s)

    def _take_checkpoint(self) -> None:
        """Serialize the accumulator to stable storage (latest wins)."""
        frame = wire.encode(self.emitter.quack, include_count=True,
                            include_checksum=True)
        blob = encode_checkpoint(EmitterCheckpoint(
            flow_id=self.flow_id, epoch=self.epoch,
            taken_at=self.sim.now, frame=frame,
            wire_version=self.wire_version, features=self.wire_features))
        self.checkpoints.save(blob)
        self.checkpoints_taken += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.checkpoint", self.sim.now,
                            flow=self.flow_id, epoch=self.epoch,
                            count=self.emitter.quack.count, bytes=len(blob))

    def _apply_reset(self, epoch: int) -> None:
        if epoch < self.epoch:
            # Out-of-order delivery of an old handshake: ignore silently.
            self.stale_resets += 1
            return
        if epoch == self.epoch:
            return  # duplicate of the current handshake (idempotent)
        self.epoch = epoch
        self.resets_applied += 1
        self.emitter = self._fresh_emitter()

    def crash_restart(self) -> None:
        """Simulate a middlebox crash/restart: all volatile state is lost.

        Without a checkpoint store, the accumulator and the epoch number
        vanish; the peer must notice (count regression or stale-epoch
        snapshots) and re-run the reset handshake.  With one, the latest
        checkpoint is restored -- stale by at most one checkpoint
        interval, which self-heals through ordinary decodes -- and a
        :class:`~repro.sidecar.protocol.ResumeMessage` tells the
        consumer to re-base instead of resetting.  A checkpoint that
        fails its CRC or describes another flow cold-starts the emitter
        exactly as if it never existed.  Used by the chaos harness.
        """
        self.restarts += 1
        self.epoch = 0
        self.emitter = self._fresh_emitter()
        # Negotiated session state is volatile too; a checkpoint (v2)
        # restores it below, otherwise an armed responder waits for a
        # fresh HELLO before assisting again.
        self.negotiated = self.negotiate_config is None
        self.negotiated_version = 1
        self.negotiated_features = 0
        self.wire_version = 1
        self.wire_features = 0
        if self.checkpoints is None:
            return
        blob = self.checkpoints.load()
        if blob is None:
            return
        try:
            checkpoint = decode_checkpoint(blob)
            restored = checkpoint.quack()
        except WireFormatError:
            self.checkpoint_corrupt += 1
            return  # torn write or bit rot: cold start
        if checkpoint.flow_id != self.flow_id \
                or restored.threshold != self.threshold:
            self.checkpoint_corrupt += 1
            return
        self.emitter.quack = restored
        self.epoch = checkpoint.epoch
        if self.negotiate_config is not None:
            # The checkpoint proves a completed handshake; resume under
            # the session it records rather than waiting for a HELLO the
            # initiator (who saw no crash) will never resend.  The
            # restored wire version is a conservative ceiling until a
            # fresh VERSION-SWITCH raises it.
            self.negotiated = True
            self.negotiated_version = max(checkpoint.wire_version, 1)
            self.negotiated_features = checkpoint.features
            self.wire_version = checkpoint.wire_version
            self.wire_features = checkpoint.features
        self.checkpoint_restores += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.resume", self.sim.now,
                            flow=self.flow_id, role="emitter", phase="sent",
                            epoch=self.epoch, count=restored.count)
        self._send_control_message(ResumeMessage(
            flow_id=self.flow_id, epoch=self.epoch, count=restored.count))

    def on_control(self, message) -> None:
        """Handle one CONTROL payload addressed to this endpoint's node.

        Corrupt frames are counted and dropped; negotiation traffic
        (HELLO offers, VERSION-SWITCH) and resets for this flow are
        applied; anything else is ignored.
        """
        if isinstance(message, CorruptFrame):
            if not message.flow_id or message.flow_id == self.flow_id:
                self.corrupt_frames += 1
            return
        if getattr(message, "flow_id", None) != self.flow_id:
            return  # another flow's session, or not a control message
        if isinstance(message, HelloMessage):
            self._on_hello(message)
        elif isinstance(message, VersionSwitchMessage):
            self._on_version_switch(message)
        elif isinstance(message, ResetMessage):
            self._apply_reset(message.epoch)

    def fault_counters(self) -> dict[str, int]:
        """The agent's resilience counters (the chaos stats surface)."""
        return {
            "epoch": self.epoch,
            "resets_applied": self.resets_applied,
            "stale_resets": self.stale_resets,
            "corrupt_frames": self.corrupt_frames,
            "restarts": self.restarts,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_restores": self.checkpoint_restores,
            "checkpoint_corrupt": self.checkpoint_corrupt,
            "wire_version": self.wire_version,
            "hello_acks_sent": self.hello_acks_sent,
            "version_switches": self.version_switches,
            "stale_switches": self.stale_switches,
            "quacks_suppressed": self.quacks_suppressed,
        }


class HostEmitterAgent(EmitterEndpoint):
    """Client-side quACK library: observe arrivals, emit quACKs to a peer.

    Keyword options are :class:`EmitterEndpoint`'s.
    """

    def __init__(self, sim: Simulator, host: Host, peer: str, flow_id: str,
                 policy: FrequencyPolicy, **options) -> None:
        super().__init__(sim, host, peer, flow_id, policy, role="host",
                         **options)
        host.add_handler(PacketKind.DATA, self._observe)
        host.add_handler(PacketKind.CONTROL, self._on_control)

    def _observe(self, packet: Packet) -> None:
        if packet.flow_id == self.flow_id and packet.identifier is not None:
            self.on_data(packet)

    def _on_control(self, packet: Packet) -> None:
        self.on_control(packet.payload)


@dataclass
class ServerSidecarStats:
    quacks_received: int = 0
    decode_failures: int = 0
    wire_errors: int = 0
    receipts_applied: int = 0
    losses_applied: int = 0
    receipts_suppressed: int = 0
    losses_suppressed: int = 0
    indeterminate_seen: int = 0
    resets_initiated: int = 0
    reset_retries: int = 0
    restarts_detected: int = 0
    stale_epoch_quacks: int = 0
    count_regressions: int = 0
    adversarial_signals: int = 0
    quarantines: int = 0
    resumes_received: int = 0
    resumes_accepted: int = 0
    resumes_rejected: int = 0
    control_corrupt_frames: int = 0
    hellos_sent: int = 0
    hello_acks_received: int = 0
    transcript_mismatches: int = 0
    quacks_before_negotiation: int = 0
    stale_version_frames: int = 0
    version_switches: int = 0


class ServerSidecar:
    """Server-side quACK library feeding the sender's window hooks.

    With ``reset_after_failures`` set, the sidecar also runs the
    Section 3.3 reset protocol: after that many consecutive decode
    failures it pauses the transport, lets the pipe drain for
    ``settle_time`` (which must exceed the path's worst-case delivery
    time), restarts its cumulative state under a new epoch, tells the
    emitter via :class:`~repro.sidecar.protocol.ResetMessage`, waits
    another ``settle_time`` (so nothing sent pre-reset can be counted in
    the new epoch) and resumes.  QuACKs from older epochs are discarded
    and answered with a repeat reset, and the announcement itself is
    retried on a timer with exponential backoff (initial
    ``2 * settle_time``, doubling to ``reset_retry_cap``) until a
    snapshot of the new epoch arrives -- so a lost ResetMessage can delay
    an epoch, never deadlock it.

    Two further defenses run regardless of the reset protocol:

    * **corruption** -- sidecar frames carry checksums, so a mangled
      datagram surfaces as :class:`~repro.errors.WireFormatError`, is
      counted in ``stats.wire_errors``, and is dropped without touching
      session state (it does *not* count toward the reset trigger: a
      reset cannot fix a noisy channel);
    * **emitter restart** -- a same-epoch snapshot whose count regressed
      by more than ``restart_margin`` means the middlebox crashed and
      came back empty; the sidecar counts it in
      ``stats.restarts_detected`` and heals with an implicit reset.

    Passing ``health=HealthConfig()`` additionally arms the
    :class:`~repro.sidecar.health.HealthMonitor` degradation ladder:
    DEGRADED withholds loss declarations, E2E_ONLY suspends all sidecar
    signals (returning congestion control to the end-to-end ACKs if it
    had been divided), and recovery runs through a probation window.

    Passing ``defense=DefenseConfig()`` arms the adversarial defenses of
    :mod:`repro.sidecar.defense` (and the health ladder too, if it was
    not already armed -- quarantine needs a ladder to stand on).  Every
    same-epoch snapshot must pass the plausibility gates before the
    consumer sees it, violations feed the quarantine ledger, and enough
    of them move the ladder to QUARANTINED.  Two behaviors flip with the
    defense armed: a large count regression no longer triggers the
    implicit restart-heal reset (an adversary replaying old snapshots
    could farm those resets into a standing stall -- the honest-restart
    case is healed by the checkpoint/resume handshake instead), and once
    quarantined no reset is ever initiated on the lying channel.
    """

    def __init__(self, sim: Simulator, sender: SenderConnection,
                 threshold: int = DEFAULT_THRESHOLD, bits: int = 32,
                 grace: int = 1, congestive_loss: bool = True,
                 apply_losses: bool = True,
                 reset_after_failures: int | None = None,
                 settle_time: float = 0.25,
                 health: HealthConfig | None = None,
                 defense: DefenseConfig | None = None,
                 negotiate: NegotiateConfig | None = None,
                 peer: str | None = None) -> None:
        self.sim = sim
        self.sender = sender
        self.congestive_loss = congestive_loss
        self.apply_losses = apply_losses
        self.reset_after_failures = reset_after_failures
        self.settle_time = settle_time
        #: Ceiling of the doubling reset-retry delay, seconds.
        self.reset_retry_cap = 2.0
        #: Count regression below this is written off as snapshot
        #: reordering; at or above it, the emitter must have restarted.
        self.restart_margin = 4 * threshold
        self.consumer = QuackConsumer(threshold, bits, grace=grace)
        self.stats = ServerSidecarStats()
        self.epoch = 0
        self._consecutive_failures = 0
        self._settling = False
        self._peer: str | None = peer
        self._last_emitter_count: int | None = None
        self._epoch_confirmed = True
        # Reusable arm for the reset-retry backoff clock: each backoff
        # step tombstones the previous arm instead of churning the queue.
        self._retry_timer = sim.timer(self._retry_reset)
        self._retry_delay = 0.0
        self._reset_reason = "decode failures"
        #: Simulator time of the last quACK-decoded loss fed to the
        #: sender (the chaos invariant "no adversary-induced signals
        #: after quarantine" reads this).
        self.last_loss_applied_at: float | None = None
        #: Whether congestion control was divided at construction time
        #: (the E2E_ONLY fallback hands it back to the e2e ACKs).
        self._cc_divided = not sender.cc_from_acks
        if defense is not None and health is None:
            health = HealthConfig()
        self.defense = defense
        self.validator = PlausibilityValidator(
            defense, threshold, self.consumer.mine.count_bits,
            sender.flow_id) if defense is not None else None
        self.ledger = QuarantineLedger.from_config(defense) \
            if defense is not None else None
        self.monitor = HealthMonitor(health) if health is not None else None
        if self.monitor is not None:
            interval = self.monitor.config.stale_after / 2
            self._staleness_timer = sim.timer(self._check_staleness,
                                              interval)
            self._staleness_timer.rearm(interval)
        # -- capability negotiation (initiator side) --
        self.negotiate = negotiate
        self.negotiated_version: int | None = None
        self.negotiated_features = 0
        self.wire_version = 1
        self.wire_features = 0
        self.handshake_bytes = 0
        #: Simulator time at which assistance became possible: 0.0 for
        #: un-negotiated sessions, the HELLO-ACK arrival otherwise (the
        #: negotiation-overhead benchmark reads this).
        self.assistance_started_at: float | None = \
            None if negotiate is not None else 0.0
        self._hello: HelloMessage | None = None
        self._expected_transcript: bytes | None = None
        # Reusable arm for the HELLO retransmit clock.
        self._hello_timer = sim.timer(self._hello_retry)
        self._switch_grace_until: float | None = None
        self._pre_switch_version = 1
        self._switch_confirmed = True
        if negotiate is not None:
            if peer is None:
                raise ValueError(
                    "capability negotiation needs an explicit peer address "
                    "(the HELLO is sent before any quACK reveals one)")
            sim.schedule(0.0, self._send_hello)
        sender.add_send_listener(self._on_send)
        sender.host.add_handler(PacketKind.QUACK, self._on_quack_packet)
        sender.host.add_handler(PacketKind.CONTROL, self._on_control_packet)

    @property
    def health_state(self) -> HealthState:
        """Current rung of the degradation ladder (HEALTHY when unarmed)."""
        return self.monitor.state if self.monitor is not None \
            else HealthState.HEALTHY

    @property
    def quarantined(self) -> bool:
        """Is the sidecar channel on the QUARANTINED rung?"""
        return self.monitor is not None and self.monitor.quarantined

    def fault_counters(self) -> dict[str, int | str]:
        """The agent's resilience counters (the chaos stats surface)."""
        counters: dict[str, int | str] = {
            "epoch": self.epoch,
            "decode_failures": self.stats.decode_failures,
            "wire_errors": self.stats.wire_errors,
            "stale_epoch_quacks": self.stats.stale_epoch_quacks,
            "resets_initiated": self.stats.resets_initiated,
            "reset_retries": self.stats.reset_retries,
            "restarts_detected": self.stats.restarts_detected,
            "receipts_suppressed": self.stats.receipts_suppressed,
            "losses_suppressed": self.stats.losses_suppressed,
            "count_regressions": self.stats.count_regressions,
            "adversarial_signals": self.stats.adversarial_signals,
            "quarantines": self.stats.quarantines,
            "resumes_received": self.stats.resumes_received,
            "resumes_accepted": self.stats.resumes_accepted,
            "resumes_rejected": self.stats.resumes_rejected,
            "control_corrupt_frames": self.stats.control_corrupt_frames,
            "hellos_sent": self.stats.hellos_sent,
            "hello_acks_received": self.stats.hello_acks_received,
            "transcript_mismatches": self.stats.transcript_mismatches,
            "quacks_before_negotiation": self.stats.quacks_before_negotiation,
            "stale_version_frames": self.stats.stale_version_frames,
            "version_switches": self.stats.version_switches,
            "wire_version": self.wire_version,
            "health": self.health_state.value,
        }
        return counters

    def _on_send(self, record: SentPacketRecord) -> None:
        if self._settling:
            return  # nothing should be in flight, but belt and braces
        self.consumer.record_send(record.identifier, record.packet_number,
                                  self.sim.now)

    def _on_quack_packet(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, QuackMessage) \
                or message.flow_id != self.sender.flow_id:
            return
        self.stats.quacks_received += 1
        self._peer = packet.src
        if not self.negotiation_complete:
            # Assistance has not been agreed to yet; an unsolicited
            # snapshot is not trusted input.
            self.stats.quacks_before_negotiation += 1
            return
        if self.negotiate is not None \
                and not self._frame_version_ok(message.frame):
            return
        if message.epoch != self.epoch:
            self.stats.stale_epoch_quacks += 1
            if message.epoch < self.epoch:
                # The emitter missed the reset; repeat it.
                self._send_reset()
            return
        self._confirm_epoch()
        if self._settling:
            return  # snapshots of the abandoned state
        try:
            quack = message.quack()
        except WireFormatError:
            # Corruption, positively identified by the frame checksum.
            # Drop the datagram; the session state is untouched, so no
            # reset is warranted -- but the channel looks unhealthy.
            self.stats.wire_errors += 1
            self.stats.decode_failures += 1
            if obs.TRACER.enabled:
                obs.TRACER.emit("sidecar.wire_error", self.sim.now,
                                flow=self.sender.flow_id)
            if obs.FLIGHT.armed:
                obs.FLIGHT.trigger("wire-error", time=self.sim.now,
                                   detail=f"flow={self.sender.flow_id}")
            self._note_health_failure("corrupt frame")
            return
        except (QuackError, TypeError):
            # Undecodable for structural reasons (alien scheme, wrong
            # type): treat like decode divergence.
            self._register_failure()
            return
        now = self.sim.now
        if self.validator is not None:
            verdict = self.validator.check_snapshot(
                quack.count, self.consumer.mine.count, now)
            if verdict.signal is not None:
                self._record_signal(verdict.signal)
            if verdict.action != "accept":
                if verdict.action == "regressed":
                    # A wiped accumulator or a replayed old snapshot.
                    # Either way: drop, no reset -- an honest restart
                    # heals through the resume handshake, and a replayer
                    # must not be able to farm reset stalls.
                    self._trace_count_regression(
                        quack.count, verdict.signal.expected)
                    self._note_health_failure("count regression")
                return
        elif self._detect_restart(quack.count):
            return
        feedback = self.consumer.on_quack(quack, now)
        if not feedback.ok:
            if self.validator is not None:
                forged = self.validator.classify_decode_failure(
                    feedback.status, feedback.num_missing,
                    self.consumer.outstanding, now)
                if forged is not None:
                    self._record_signal(forged)
            self._register_failure()
            return
        self._consecutive_failures = 0
        self._last_emitter_count = quack.count
        if self.validator is not None:
            self.validator.note_accepted(quack.count)
        if feedback.reconciled and obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.gap_reconciled", now,
                            flow=self.sender.flow_id,
                            packets=feedback.reconciled)
        if self.monitor is not None:
            self.monitor.on_good_quack(now)
            self._sync_health()
        self.stats.indeterminate_seen += len(feedback.indeterminate)
        allow_receipts = self.monitor.allow_receipts \
            if self.monitor is not None else True
        allow_losses = self.monitor.allow_losses \
            if self.monitor is not None else True
        if feedback.received:
            if allow_receipts:
                self.stats.receipts_applied += len(feedback.received)
                self.sender.sidecar_receipt(feedback.received)
            else:
                self.stats.receipts_suppressed += len(feedback.received)
        if feedback.lost and self.apply_losses:
            if allow_losses:
                self.stats.losses_applied += len(feedback.lost)
                self.last_loss_applied_at = now
                self.sender.sidecar_loss(feedback.lost,
                                         congestive=self.congestive_loss)
            else:
                self.stats.losses_suppressed += len(feedback.lost)

    # -- restart detection -------------------------------------------------------

    def _detect_restart(self, count: int) -> bool:
        """True if this same-epoch snapshot reveals an emitter restart.

        The emitter's count is cumulative modulo ``2**count_bits``: it
        only ever moves forward (small reorderings aside).  A regression
        of ``restart_margin`` or more means the accumulator was wiped --
        the middlebox crashed and restarted -- so the cumulative states
        can never re-converge without a reset.
        """
        if self._last_emitter_count is None:
            return False
        modulus = 1 << self.consumer.mine.count_bits
        regression = (self._last_emitter_count - count) % modulus
        # Forward movement shows up as a huge "regression" (more than
        # half the counter space back); ignore it.
        if not self.restart_margin <= regression < modulus // 2:
            return False
        self.stats.restarts_detected += 1
        self._trace_count_regression(count, self._last_emitter_count)
        self._note_health_failure("emitter restart")
        if not self._settling:
            self._begin_reset("emitter restart")
        return True

    def _trace_count_regression(self, observed: int, expected: int) -> None:
        """Record a count regression (with both counts) before any heal."""
        self.stats.count_regressions += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.count_regression", self.sim.now,
                            flow=self.sender.flow_id, observed=observed,
                            expected=expected)

    # -- adversarial defense (plausibility gates + quarantine) -------------------

    def _record_signal(self, signal: AdversarialSignal) -> None:
        """Ledger one plausibility violation; quarantine on the verdict."""
        self.stats.adversarial_signals += 1
        now = self.sim.now
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.violation", now,
                            flow=self.sender.flow_id, kind=signal.kind.value,
                            observed=signal.observed, expected=signal.expected)
        if self.ledger is None or self.monitor is None:
            return
        if self.ledger.record(signal):
            self.stats.quarantines += 1
            self._cancel_retry()
            self._cancel_hello_retry()
            self.monitor.on_adversarial(
                now, f"quarantined: {signal.kind.value}")
            self._sync_health()
            if obs.TRACER.enabled:
                obs.TRACER.emit("sidecar.quarantine", now,
                                flow=self.sender.flow_id,
                                kind=signal.kind.value,
                                signals=len(self.ledger.signals))
        elif self.monitor.quarantined:
            # Still lying while quarantined: restart the clean clock.
            self.monitor.on_adversarial(now, signal.kind.value)

    # -- capability negotiation (initiator side) ---------------------------------

    @property
    def negotiation_complete(self) -> bool:
        """Has assistance been agreed?  Trivially true when not armed."""
        return self.negotiate is None or self.negotiated_version is not None

    def _send_hello(self) -> None:
        caps = self.negotiate.capabilities
        if self._hello is None:
            self._hello = caps.hello(
                self.sender.flow_id,
                threshold=self.consumer.mine.threshold,
                bits=self.consumer.mine.bits)
            self._expected_transcript = hello_transcript(self._hello)
        packet = control_packet(self.sender.host.name, self._peer,
                                self._hello, self.sim.now)
        self.stats.hellos_sent += 1
        self.handshake_bytes += packet.size_bytes
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.hello", self.sim.now,
                            flow=self.sender.flow_id,
                            max_version=self._hello.max_version,
                            attempt=self.stats.hellos_sent)
        self.sender.host.send(packet)
        self._hello_timer.rearm(self.negotiate.retry_s)

    def _hello_retry(self) -> None:
        if self.negotiation_complete or self.quarantined:
            return
        if self.stats.hellos_sent >= self.negotiate.strip_after:
            # The loss allowance is spent: an unanswered offer is now
            # evidence of an on-path downgrade (stripped HELLOs), not of
            # an unlucky datagram.
            self._record_signal(AdversarialSignal(
                time=self.sim.now, kind=SignalKind.DOWNGRADE,
                flow_id=self.sender.flow_id,
                detail=f"{self.stats.hellos_sent} capability offers "
                       f"unanswered",
                observed=self.stats.hellos_sent,
                expected=self.negotiate.strip_after))
            if self.quarantined:
                return  # that signal tripped quarantine: stop offering
        self._send_hello()

    def _cancel_hello_retry(self) -> None:
        self._hello_timer.cancel()

    def _on_hello_ack(self, packet: Packet, ack: HelloAckMessage) -> None:
        self.stats.hello_acks_received += 1
        if self.negotiate is None or self.negotiation_complete:
            return  # unsolicited or duplicate answer
        self.handshake_bytes += packet.size_bytes
        caps = self.negotiate.capabilities
        if ack.transcript != self._expected_transcript \
                or not caps.min_version <= ack.version <= caps.max_version:
            # The responder answered an offer we never made: someone
            # rewrote the HELLO in flight (or forged the answer).
            self.stats.transcript_mismatches += 1
            self._record_signal(AdversarialSignal(
                time=self.sim.now, kind=SignalKind.DOWNGRADE,
                flow_id=self.sender.flow_id,
                detail="hello-ack transcript does not match the offer sent",
                observed=ack.version, expected=self._hello.max_version))
            return
        self._peer = packet.src
        self.negotiated_version = ack.version
        self.negotiated_features = ack.features & caps.features
        self.assistance_started_at = self.sim.now
        self._cancel_hello_retry()
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.negotiated", self.sim.now,
                            flow=self.sender.flow_id, role="consumer",
                            version=ack.version, features=ack.features,
                            handshake_bytes=self.handshake_bytes)

    def request_version_switch(self, version: int) -> bool:
        """Flip the session's wire version mid-connection, without a reset.

        Sends a VERSION-SWITCH pinned to the current epoch and starts
        *sending* under ``version`` immediately.  On the receive side,
        old-version frames stay acceptable until the first new-version
        frame proves the emitter adopted the switch -- the switch
        message shares the forward link with DATA and can queue behind
        a full bottleneck buffer, so a wall-clock deadline would
        misclassify a healthy emitter's snapshots as stale.  From that
        confirmation, reordered stragglers get one
        :attr:`~repro.sidecar.negotiate.NegotiateConfig.switch_grace_s`
        window; afterwards old-version frames are counted and dropped.
        Returns False when the switch is not possible (no negotiation,
        above the negotiated ceiling, or the peer did not offer the
        version-switch feature).
        """
        if self.negotiate is None or not self.negotiation_complete:
            return False
        if version == self.wire_version:
            return True
        if (not 1 <= version <= self.negotiated_version
                or not self.negotiated_features & FEATURE_VERSION_SWITCH
                or self._peer is None):
            return False
        switch = VersionSwitchMessage(flow_id=self.sender.flow_id,
                                      version=version, epoch=self.epoch)
        self.sender.host.send(control_packet(
            self.sender.host.name, self._peer, switch, self.sim.now,
            version=self.wire_version, features=self.wire_features))
        self._pre_switch_version = self.wire_version
        self.wire_version = version
        self.wire_features = self.negotiated_features & 0xFF \
            if version >= 2 else 0
        self._switch_confirmed = False
        self._switch_grace_until = None
        self.stats.version_switches += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.version_switch", self.sim.now,
                            flow=self.sender.flow_id, role="consumer",
                            version=version, epoch=self.epoch)
        return True

    def _frame_version_ok(self, frame: bytes) -> bool:
        """Enforce the negotiated wire version on an arriving quACK frame."""
        try:
            version = wire.frame_version(frame)
        except WireFormatError:
            return True  # let the decode path classify the corruption
        if version == self.wire_version:
            if not self._switch_confirmed:
                # First frame under the new version: the emitter has
                # demonstrably adopted the switch.  Stragglers reordered
                # behind it get one grace window from this moment.
                self._switch_confirmed = True
                self._switch_grace_until = \
                    self.sim.now + self.negotiate.switch_grace_s
            return True
        if version == self._pre_switch_version:
            if not self._switch_confirmed:
                return True  # switch still propagating; snapshot is valid
            grace = self._switch_grace_until
            if grace is not None and self.sim.now <= grace:
                return True  # reordered in-flight frame from before
        self.stats.stale_version_frames += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.stale_version", self.sim.now,
                            flow=self.sender.flow_id, got=version,
                            expected=self.wire_version)
        return False

    # -- checkpoint/restore (resume handshake, consumer side) --------------------

    def _on_control_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, CorruptFrame):
            if not message.flow_id or message.flow_id == self.sender.flow_id:
                self.stats.control_corrupt_frames += 1
            return
        if isinstance(message, HelloAckMessage) \
                and message.flow_id == self.sender.flow_id:
            self._on_hello_ack(packet, message)
            return
        if not isinstance(message, ResumeMessage) \
                or message.flow_id != self.sender.flow_id:
            return
        now = self.sim.now
        self.stats.resumes_received += 1
        self._peer = packet.src
        if self.quarantined:
            # No handshake with a quarantined peer: probation is earned
            # through clean snapshots, not announcements.
            self._finish_resume(message, "rejected")
            return
        if message.epoch < self.epoch:
            # A pre-reset checkpoint was restored: not adversarial, but
            # it describes an abandoned epoch.  Repeat the reset.
            self._finish_resume(message, "rejected")
            self._send_reset()
            return
        signal = None
        if self.validator is not None:
            signal = self.validator.check_resume(
                message.epoch, message.count, current_epoch=self.epoch,
                sent_count=self.consumer.mine.count, now=now)
            implausible = signal is not None
        else:
            modulus = 1 << self.consumer.mine.count_bits
            ahead = (message.count - self.consumer.mine.count) % modulus
            implausible = (message.epoch > self.epoch
                           or 0 < ahead < modulus // 2)
        if implausible:
            if signal is not None:
                self._record_signal(signal)
            self._finish_resume(message, "rejected")
            if not self.quarantined:
                self._send_reset()
            return
        # Plausible: re-base the expected emitter count at the restored
        # checkpoint and arm gap reconciliation.  Packets observed after
        # the checkpoint but confirmed received pre-crash are in the
        # sender sums only; the next decode retires them via the
        # recently-confirmed ring -- no pause, no reset round-trip, no
        # spurious loss reports (end-to-end ACKs already covered them).
        self._confirm_epoch()
        self._consecutive_failures = 0
        self._last_emitter_count = message.count
        if self.validator is not None:
            self.validator.rewind(message.count)
        self.consumer.arm_reconciliation()
        self._finish_resume(message, "accepted")

    def _finish_resume(self, message: ResumeMessage, outcome: str) -> None:
        if outcome == "accepted":
            self.stats.resumes_accepted += 1
        else:
            self.stats.resumes_rejected += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.resume", self.sim.now,
                            flow=self.sender.flow_id, role="consumer",
                            phase=outcome, epoch=message.epoch,
                            count=message.count)

    # -- reset protocol (Section 3.3) -------------------------------------------

    def _register_failure(self) -> None:
        self.stats.decode_failures += 1
        self._consecutive_failures += 1
        self._note_health_failure("decode failure")
        if (self.reset_after_failures is not None
                and not self._settling
                and not self.quarantined
                and self._consecutive_failures >= self.reset_after_failures):
            self._begin_reset("decode failures")

    def _begin_reset(self, reason: str = "decode failures") -> None:
        self.stats.resets_initiated += 1
        self._settling = True
        self._reset_reason = reason
        self._cancel_retry()
        self.sender.pause()
        self.sim.schedule(self.settle_time, self._complete_reset)

    def _complete_reset(self) -> None:
        # The pipe has drained: restart the session state.
        self.consumer.reset()
        self.epoch += 1
        self._consecutive_failures = 0
        self._last_emitter_count = None
        self._epoch_confirmed = False
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.reset", self.sim.now,
                            flow=self.sender.flow_id, epoch=self.epoch,
                            reason=self._reset_reason)
        self._send_reset()
        self._arm_retry(initial=True)
        self.sim.schedule(self.settle_time, self._resume)

    def _resume(self) -> None:
        self._settling = False
        self.sender.resume()

    def _send_reset(self) -> None:
        if self._peer is None:
            return
        self.sender.host.send(control_packet(
            self.sender.host.name, self._peer,
            ResetMessage(flow_id=self.sender.flow_id, epoch=self.epoch),
            self.sim.now, version=self.wire_version,
            features=self.wire_features))

    # -- reset retry (lost-handshake recovery) -----------------------------------

    def _confirm_epoch(self) -> None:
        """A snapshot of the current epoch arrived: the emitter heard us."""
        self._epoch_confirmed = True
        self._cancel_retry()

    def _arm_retry(self, initial: bool = False) -> None:
        if initial:
            self._retry_delay = 2 * self.settle_time
        self._retry_timer.rearm(self._retry_delay)

    def _cancel_retry(self) -> None:
        self._retry_timer.cancel()

    def _retry_reset(self) -> None:
        if self._epoch_confirmed or self.quarantined:
            return
        self.stats.reset_retries += 1
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.reset_retry", self.sim.now,
                            flow=self.sender.flow_id, epoch=self.epoch)
        self._send_reset()
        self._retry_delay = min(2 * self._retry_delay, self.reset_retry_cap)
        self._arm_retry()

    # -- health ladder ------------------------------------------------------------

    def _note_health_failure(self, reason: str) -> None:
        if self.monitor is None:
            return
        self.monitor.on_failure(self.sim.now, reason)
        self._sync_health()

    def _check_staleness(self, interval: float) -> None:
        if (self.monitor is not None and not self._settling
                and not self.monitor.e2e_only
                and self.monitor.is_stale(self.sim.now)):
            self.monitor.on_stale(self.sim.now)
            self._sync_health()
        self._staleness_timer.rearm(interval)

    def _sync_health(self) -> None:
        """Apply the monitor's verdict to the transport.

        Congestion-control division is only safe while sidecar receipts
        actually flow: in E2E_ONLY and RECOVERING the end-to-end ACKs get
        the congestion controller back, and HEALTHY returns it to the
        sidecar.
        """
        if self.monitor is None or not self._cc_divided:
            return
        state = self.monitor.state
        divided = state in (HealthState.HEALTHY, HealthState.DEGRADED)
        self.sender.cc_from_acks = not divided


class ProxyEmitterTap(EmitterEndpoint):
    """Proxy sidecar that quACKs forwarded DATA packets to the server.

    A pure observer on ``router``: watches packets heading toward
    ``client`` for ``flow_id`` and sends quACK snapshots back to
    ``server`` (the ACK-reduction proxy role: "The proxy can send quACKs,
    e.g., every other packet", Section 2.2).  Keyword options are
    :class:`EmitterEndpoint`'s.
    """

    def __init__(self, sim: Simulator, router: Router, server: str,
                 client: str, flow_id: str, policy: FrequencyPolicy,
                 **options) -> None:
        super().__init__(sim, router, server, flow_id, policy, role="proxy",
                         **options)
        self.router = router
        self.client = client
        router.add_tap(self.observe)

    def observe(self, packet: Packet) -> None:
        if packet.dst == self.router.name:
            if packet.kind is PacketKind.CONTROL:
                self.on_control(packet.payload)
        elif (packet.kind is PacketKind.DATA
                and packet.dst == self.client
                and packet.flow_id == self.flow_id
                and packet.identifier is not None):
            self.on_data(packet)
