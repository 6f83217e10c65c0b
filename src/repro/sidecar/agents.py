"""Sidecar agents: the wiring between the session machines and the network.

Table 1 assigns two roles -- *sends quACKs* and *receives quACKs* -- to
server, proxy and client; each role is written here once, and a protocol
supplies what it varies by subclassing:

* :class:`EmitterEndpoint` -- the sending role; where the observations
  come from varies: a host (:class:`HostEmitterAgent`), a pure-observer
  proxy (:class:`ProxyEmitterTap`, Sections 2.2 and 2.3), or the pacing
  proxy feeding a plain endpoint upstream;
* :class:`ConsumerEndpoint` -- the receiving role; where the log comes
  from and what the news moves vary: the server's transport
  (:class:`ServerSidecar`), the pacing proxy's custody buffer
  (:mod:`~repro.sidecar.cc_division`), the retransmitting proxy's
  packet buffer (:mod:`~repro.sidecar.retransmission`).

The agents own constructors, timers, datagrams, counters and trace
events.  Every decision belongs to a machine that is handed events and
``now`` and returns a verdict, and whose module carries the argument for
it: :mod:`~repro.sidecar.reset` (epochs, settling, retry backoff, emitter
restarts), :mod:`~repro.sidecar.negotiate` (capability handshake, version
switch), :mod:`~repro.sidecar.snapshot` (checkpoint restore, resume
handshake), :mod:`~repro.sidecar.defense` (plausibility gates,
quarantine) and :mod:`~repro.sidecar.health` (the degradation ladder).
All are opt-in and a sidecar is strictly optional: whatever the channel
does -- corrupt, lose, replay, lie, go silent -- may degrade the
assistance, never the transport.  ``fault_counters()`` is every agent's
resilience report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro import obs
from repro.errors import QuackError, WireFormatError
from repro.netsim.core import Simulator
from repro.netsim.node import Host, Node, Router
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import QuackConsumer, QuackFeedback
from repro.sidecar.defense import (
    AdversarialSignal,
    DefenseConfig,
    PlausibilityValidator,
    QuarantineLedger,
)
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.frequency import AdaptiveFrequency, FrequencyPolicy
from repro.sidecar.health import HealthConfig, HealthMonitor, HealthState
from repro.sidecar.negotiate import Initiator, NegotiateConfig, Session
from repro.sidecar.protocol import (
    ConfigMessage,
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
from repro.sidecar.reset import ResetInitiator, epoch_verdict
from repro.sidecar.snapshot import (
    CheckpointStore,
    EmitterCheckpoint,
    encode_checkpoint,
    restore_checkpoint,
    resume_verdict,
)
from repro.transport.connection import SenderConnection, SentPacketRecord

#: Default quACK threshold, the paper's running configuration (t=20).
DEFAULT_THRESHOLD = 20

#: ``EmitterEndpoint.fault_counters()``: attribute names, in report order.
_EMITTER_COUNTERS = (
    "epoch", "resets_applied", "stale_resets", "corrupt_frames", "restarts",
    "checkpoints_taken", "checkpoint_restores", "checkpoint_corrupt",
    "wire_version", "hello_acks_sent", "version_switches", "stale_switches",
    "quacks_suppressed")


class _Endpoint:
    """Either role: one flow at one ``node``, one ``peer``, one ``session``."""

    def _trace(self, event: str, **fields) -> None:
        if obs.TRACER.enabled:
            obs.TRACER.emit(event, self.sim.now, flow=self.flow_id, **fields)

    def _send_control(self, message: ControlMessage) -> None:
        node = self.node
        node.send(control_packet(
            node.name, self.peer, message, self.sim.now,
            version=self.session.wire_version,
            features=self.session.wire_features))


class EmitterEndpoint(_Endpoint):
    """Table 1's *sends quACKs* role: one flow, one node, one peer.

    Folds the flow's identifiers into a
    :class:`~repro.sidecar.emitter.QuackEmitter` at ``node`` (a host or a
    router) and sends the snapshots its frequency policy calls for to
    ``peer``, on a reusable emission clock when the policy is
    timer-driven.  It is also the responder side of everything the
    receiving role can ask of it: reset epochs, a cadence retune,
    crash/restart with checkpoint resume (``checkpoints``), HELLO
    negotiation and mid-session version switches (``negotiate``; no
    quACK leaves before the handshake completes).  Where the
    observations come from is the only thing the protocols vary:
    subclasses attach to a host handler or a router tap and filter; the
    pacing proxy feeds a plain endpoint.

    ``role`` labels the ``sidecar.quack_emit`` trace event.  ``ledger_key``
    names the accumulator in the per-flow resource ledger where one flow
    has more than one (default: ``flow_id``).
    """

    def __init__(self, sim: Simulator, node: Node, peer: str, flow_id: str,
                 policy: FrequencyPolicy, role: str,
                 threshold: int = DEFAULT_THRESHOLD,
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
        self.bits = 32  # until a HELLO negotiates fewer
        self.policy = policy
        self._ledger_key = ledger_key if ledger_key is not None else flow_id
        self.emitter = self._fresh_emitter()
        self.quacks_sent = 0
        self.epoch = 0
        self.resets_applied = 0
        self.stale_resets = 0
        self.corrupt_frames = 0
        self.restarts = 0
        self.checkpoints = checkpoints
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoints_taken = 0
        self.checkpoint_restores = 0
        self.checkpoint_corrupt = 0
        self.negotiate_config = negotiate
        self.session = Session(armed=negotiate is not None)
        self.hello_acks_sent = 0
        self.version_switches = 0
        self.stale_switches = 0
        self.quacks_suppressed = 0
        if checkpoints is not None:
            if checkpoint_interval_s <= 0:
                raise ValueError(f"checkpoint interval must be > 0, got "
                                 f"{checkpoint_interval_s}")
            self._checkpoint_timer = sim.timer(self._checkpoint_tick)
            self._checkpoint_timer.rearm(checkpoint_interval_s)
        interval = policy.interval_hint()
        if interval is not None:
            # The emission clock lives on one reusable timer for the
            # endpoint's whole life (one wheel-slot insert per tick).
            self._tick_timer = sim.timer(self._tick, interval)
            self._tick_timer.rearm(interval)

    @property
    def wire_version(self) -> int:
        return self.session.wire_version

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
        session = self.session
        if not session.ready:
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
                                    version=session.wire_version,
                                    features=session.wire_features))

    # -- negotiation (responder side) --------------------------------------------

    def _on_hello(self, hello: HelloMessage) -> None:
        if self.negotiate_config is None:
            return  # legacy peer: negotiation not armed here
        ack, opened = self.session.answer(
            hello, self.negotiate_config.capabilities)
        if ack is None:
            return
        if opened:
            if ((ack.threshold, ack.bits) != (self.threshold, self.bits)
                    and self.emitter.quack.count == 0):
                # Adopt the negotiated parameters -- but only while the
                # accumulator is empty; once identifiers are folded in,
                # rebuilding it would orphan them in the peer's log.
                self.threshold, self.bits = ack.threshold, ack.bits
                self.emitter = self._fresh_emitter()
            self._trace("sidecar.negotiated", role="emitter",
                        version=ack.version, features=ack.features)
        self.hello_acks_sent += 1
        self._send_control(ack)

    def _on_version_switch(self, switch: VersionSwitchMessage) -> None:
        verdict = self.session.follow(switch, self.epoch)
        if verdict == "stale":
            self.stale_switches += 1
        elif verdict == "switched":
            self.version_switches += 1
            self._trace("sidecar.version_switch", role="emitter",
                        version=switch.version, epoch=switch.epoch)

    # -- checkpoint/restore ----------------------------------------------------

    def _checkpoint_tick(self) -> None:
        """Serialize the accumulator to stable storage (latest wins)."""
        frame = wire.encode(self.emitter.quack, include_count=True,
                            include_checksum=True)
        blob = encode_checkpoint(EmitterCheckpoint(
            flow_id=self.flow_id, epoch=self.epoch,
            taken_at=self.sim.now, frame=frame,
            wire_version=self.session.wire_version,
            features=self.session.wire_features))
        self.checkpoints.save(blob)
        self.checkpoints_taken += 1
        self._trace("sidecar.checkpoint", epoch=self.epoch,
                    count=self.emitter.quack.count, bytes=len(blob))
        self._checkpoint_timer.rearm(self.checkpoint_interval_s)

    def _apply_reset(self, epoch: int) -> None:
        verdict = epoch_verdict(self.epoch, epoch)
        if verdict == "stale":
            self.stale_resets += 1
        elif verdict == "new":
            self.epoch = epoch
            self.resets_applied += 1
            self.emitter = self._fresh_emitter()

    def crash_restart(self) -> None:
        """Simulate a middlebox crash/restart: all volatile state is lost.

        The accumulator, the epoch and the negotiated session vanish;
        the peer must notice and reset, and an armed responder waits for
        a fresh HELLO -- unless a checkpoint store holds a checkpoint
        worth restoring (:mod:`repro.sidecar.snapshot`), which is then
        announced with a ResumeMessage.  Used by the chaos harness.
        """
        self.restarts += 1
        self.epoch = 0
        self.emitter = self._fresh_emitter()
        self.session = Session(armed=self.negotiate_config is not None)
        blob = self.checkpoints.load() if self.checkpoints is not None \
            else None
        if blob is None:
            return
        restored = restore_checkpoint(blob, self.flow_id, self.threshold)
        if restored is None:
            self.checkpoint_corrupt += 1
            return
        checkpoint, self.emitter.quack = restored
        self.epoch = checkpoint.epoch
        if self.negotiate_config is not None:
            # The checkpoint proves a completed handshake; resume under
            # the session it records rather than waiting for a HELLO the
            # initiator (who saw no crash) will never resend.  The
            # restored wire version is a conservative ceiling until a
            # fresh VERSION-SWITCH raises it.
            self.session.agree(max(checkpoint.wire_version, 1),
                               checkpoint.features)
            self.session.switch(checkpoint.wire_version)
        self.checkpoint_restores += 1
        count = self.emitter.quack.count
        self._trace("sidecar.resume", role="emitter", phase="sent",
                    epoch=self.epoch, count=count)
        self._send_control(ResumeMessage(
            flow_id=self.flow_id, epoch=self.epoch, count=count))

    def on_control(self, message) -> None:
        """Handle one CONTROL payload addressed to this endpoint's node.

        Corrupt frames are counted and dropped; negotiation traffic
        (HELLO offers, VERSION-SWITCH), resets and cadence retunes for
        this flow are applied; anything else is ignored.
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
        elif (isinstance(message, ConfigMessage)
                and message.every_n is not None
                and isinstance(self.policy, AdaptiveFrequency)):
            self.policy.configure(message.every_n)

    def fault_counters(self) -> dict[str, int]:
        """The agent's resilience counters (the chaos stats surface)."""
        return {key: getattr(self, key) for key in _EMITTER_COUNTERS}


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
class ConsumerEndpointStats:
    """``fault_counters()`` reports all but :data:`_TRAFFIC_COUNTERS`."""

    quacks_received: int = field(default=0, init=False)
    receipts_applied: int = field(default=0, init=False)
    losses_applied: int = field(default=0, init=False)
    decode_failures: int = field(default=0, init=False)
    wire_errors: int = field(default=0, init=False)
    stale_epoch_quacks: int = field(default=0, init=False)
    resets_initiated: int = field(default=0, init=False)
    reset_retries: int = field(default=0, init=False)
    restarts_detected: int = field(default=0, init=False)
    receipts_suppressed: int = field(default=0, init=False)
    losses_suppressed: int = field(default=0, init=False)
    count_regressions: int = field(default=0, init=False)
    adversarial_signals: int = field(default=0, init=False)
    quarantines: int = field(default=0, init=False)
    resumes_received: int = field(default=0, init=False)
    resumes_accepted: int = field(default=0, init=False)
    resumes_rejected: int = field(default=0, init=False)
    control_corrupt_frames: int = field(default=0, init=False)
    hellos_sent: int = field(default=0, init=False)
    hello_acks_received: int = field(default=0, init=False)
    transcript_mismatches: int = field(default=0, init=False)
    quacks_before_negotiation: int = field(default=0, init=False)
    stale_version_frames: int = field(default=0, init=False)
    version_switches: int = field(default=0, init=False)


#: The :class:`ConsumerEndpointStats` fields that count traffic, not faults.
_TRAFFIC_COUNTERS = ("quacks_received", "receipts_applied", "losses_applied")


class ConsumerEndpoint(_Endpoint):
    """Table 1's *receives quACKs* role: one flow, one node, one peer.

    Keeps the log of what left ``node`` toward the quACKing observer in
    a :class:`~repro.sidecar.consumer.QuackConsumer`, takes every
    arriving quACK through the gates of :meth:`_on_quack_packet`, runs
    the Section 3.3 reset, and hands the news to its holder.
    ``reset_after_failures``/``settle_time`` configure ``reset``
    (:mod:`~repro.sidecar.reset`; always present, it carries the epoch),
    ``health`` arms ``monitor`` (:mod:`~repro.sidecar.health`),
    ``defense`` arms ``validator`` and ``ledger``
    (:mod:`~repro.sidecar.defense`) and the ladder with them --
    quarantine needs one to stand on -- and ``negotiate`` arms
    ``handshake`` (:mod:`~repro.sidecar.negotiate`), which needs
    ``peer``.  With nothing armed a gate is one attribute test.

    A holder subclasses: it calls ``consumer.record_send`` for every
    packet it lets toward the observer (always -- ``consumer.reset()`` at
    the epoch boundary is what discards the old epoch), routes the
    datagrams addressed to ``node`` to :meth:`_on_quack_packet` and
    :meth:`_on_control_packet`, and overrides the hooks below.
    """

    def __init__(self, sim: Simulator, node: Node, flow_id: str,
                 stats: ConsumerEndpointStats,
                 threshold: int = DEFAULT_THRESHOLD, grace: int = 1,
                 reset_after_failures: int | None = None,
                 settle_time: float = 0.25,
                 health: HealthConfig | None = None,
                 defense: DefenseConfig | None = None,
                 negotiate: NegotiateConfig | None = None,
                 peer: str | None = None) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.consumer = QuackConsumer(threshold, grace=grace)
        self.stats = stats
        count_bits = self.consumer.count_bits
        self.reset = ResetInitiator(threshold, count_bits,
                                    reset_after_failures, settle_time)
        #: Where resets, offers, switches and retunes go: fixed by the
        #: handshake when negotiation is armed, otherwise whoever sent
        #: the last quACK that passed the gates.
        self.peer = peer
        # Reusable arms: a step tombstones the last, no queue churn.
        self._retry_timer = sim.timer(self._retry_reset)
        self._hello_timer = sim.timer(self._hello_retry)
        self.validator = self.ledger = self.monitor = self.handshake = None
        if defense is not None:
            self.validator = PlausibilityValidator(
                defense, threshold, count_bits, flow_id)
            self.ledger = QuarantineLedger.from_config(defense)
            health = health if health is not None else HealthConfig()
        if health is not None:
            self.monitor = HealthMonitor(health)
            interval = health.stale_after / 2
            self._staleness_timer = sim.timer(self._check_staleness, interval)
            self._staleness_timer.rearm(interval)
        self.session = Session(armed=negotiate is not None)
        self.handshake_bytes = 0
        #: When assistance became possible: 0.0 un-negotiated, else the
        #: HELLO-ACK's arrival (the negotiation-overhead benchmark).
        self.assistance_started_at: float | None = 0.0
        if negotiate is not None:
            if peer is None:
                raise ValueError(
                    "capability negotiation needs an explicit peer address "
                    "(the HELLO is sent before any quACK reveals one)")
            self.handshake = Initiator(negotiate, self.session, flow_id,
                                       threshold, self.consumer.bits)
            self.assistance_started_at = None
            sim.schedule(0.0, self._send_hello)

    # -- what a holder supplies ----------------------------------------------------

    def _apply(self, feedback: QuackFeedback, now: float) -> None:
        """One decoded quACK's news: move what this protocol moves."""
        raise NotImplementedError

    def _pause(self) -> None:
        """A reset began: stop sending toward the observer."""

    def _resume(self) -> None:
        """The second settle window is over, the log starts empty: send."""

    def _sync_health(self) -> None:
        """The ladder may have moved: act on what its rung allows."""

    @property
    def epoch(self) -> int:
        return self.reset.epoch

    @property
    def negotiated_version(self) -> int | None:
        """The agreed version ceiling (None: no handshake, or not yet)."""
        return self.session.version

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
        counters: dict[str, int | str] = {"epoch": self.reset.epoch}
        for key, value in asdict(self.stats).items():
            if key not in _TRAFFIC_COUNTERS:
                counters[key] = value
        counters["wire_version"] = self.session.wire_version
        counters["health"] = self.health_state.value
        return counters

    # -- one quACK, gate by gate ---------------------------------------------------

    def _on_quack_packet(self, packet: Packet) -> None:
        """The gates a datagram passes, in order, before its news counts."""
        message = packet.payload
        if not isinstance(message, QuackMessage) \
                or message.flow_id != self.flow_id:
            return
        stats, reset, handshake = self.stats, self.reset, self.handshake
        stats.quacks_received += 1
        if handshake is not None:
            if not handshake.session.ready:
                # Assistance has not been agreed to yet; an unsolicited
                # snapshot is not trusted input.
                stats.quacks_before_negotiation += 1
                return
            if self._stale_version(message.frame):
                return
        if message.epoch != reset.epoch:
            stats.stale_epoch_quacks += 1
            if message.epoch < reset.epoch:
                self._send_reset()  # the emitter missed the reset: repeat
            return
        if handshake is None:
            self.peer = packet.src
        if not reset.confirmed:
            # A snapshot of the current epoch: the emitter heard us.
            reset.confirmed = True
            self._retry_timer.cancel()
        if reset.settling:
            return  # snapshots of the abandoned state
        now = self.sim.now
        try:
            quack = message.quack()
        except WireFormatError:
            # Corruption, positively identified by the frame checksum:
            # the session state is untouched, so no reset is warranted
            # (it cannot fix a noisy channel) -- but the channel looks
            # unhealthy.
            stats.wire_errors += 1
            stats.decode_failures += 1
            self._trace("sidecar.wire_error")
            if obs.FLIGHT.armed:
                obs.FLIGHT.trigger("wire-error", time=now,
                                   detail=f"flow={self.flow_id}")
            self._note_health_failure("corrupt frame")
            return
        except (QuackError, TypeError):
            # Undecodable for structural reasons (alien scheme, wrong
            # type): treat like decode divergence.
            self._register_failure()
            return
        # The count gate, the decode, then the news to the holder.
        validator = self.validator
        if validator is not None:
            # Armed: signal what the count gates catch, never reset.
            verdict = validator.check_snapshot(
                quack.count, self.consumer.sent_count, now)
            if verdict.signal is not None:
                self._record_signal(verdict.signal)
            if verdict.action == "regressed":
                self._on_count_regression(
                    quack.count, verdict.signal.expected, "count regression")
            if verdict.action != "accept":
                return
        elif reset.restarted(quack.count):
            # Unarmed, a wiped emitter is healed by an implicit reset.
            stats.restarts_detected += 1
            self._on_count_regression(quack.count, reset.last_emitter_count,
                                      "emitter restart")
            self._begin_reset("emitter restart")
            return
        feedback = self.consumer.on_quack(quack, now)
        if not feedback.ok:
            if validator is not None:
                forged = validator.classify_decode_failure(
                    feedback.status, feedback.num_missing,
                    self.consumer.outstanding, now)
                if forged is not None:
                    self._record_signal(forged)
            self._register_failure()
            return
        reset.on_decoded(quack.count)
        if validator is not None:
            validator.note_accepted(quack.count)
        if feedback.reconciled:
            self._trace("sidecar.gap_reconciled", packets=feedback.reconciled)
        if self.monitor is not None:
            self.monitor.on_good_quack(now)
            self._sync_health()
        self._apply(feedback, now)

    def _stale_version(self, frame: bytes) -> bool:
        """Does the frame break the negotiated wire version?"""
        try:
            version = wire.frame_version(frame)
        except WireFormatError:
            return False  # let the decode path classify the corruption
        if self.handshake.frame_ok(version, self.sim.now):
            return False
        self.stats.stale_version_frames += 1
        self._trace("sidecar.stale_version", got=version,
                    expected=self.session.wire_version)
        return True

    def _on_count_regression(self, observed: int, expected: int,
                             reason: str) -> None:
        """Record a regression into the restart band before any heal."""
        self.stats.count_regressions += 1
        self._trace("sidecar.count_regression", observed=observed,
                    expected=expected)
        self._note_health_failure(reason)

    def _record_signal(self, signal: AdversarialSignal) -> None:
        """Count and ledger one violation; quarantine on the verdict."""
        self.stats.adversarial_signals += 1
        self._trace("sidecar.violation", kind=signal.kind.value,
                    observed=signal.observed, expected=signal.expected)
        if self.ledger is None:
            return
        tripped, reason = self.ledger.judge(signal, self.monitor.quarantined)
        if reason is not None:
            self.monitor.on_adversarial(self.sim.now, reason)
        if tripped:
            self.stats.quarantines += 1
            self._retry_timer.cancel()
            self._hello_timer.cancel()
            self._sync_health()
            self._trace("sidecar.quarantine", kind=signal.kind.value,
                        signals=len(self.ledger.signals))

    # -- capability negotiation (initiator side) ---------------------------------

    def _send_hello(self) -> None:
        node = self.node
        offer = self.handshake.offer
        packet = control_packet(node.name, self.peer, offer, self.sim.now)
        self.stats.hellos_sent += 1
        self.handshake_bytes += packet.size_bytes
        self._trace("sidecar.hello", max_version=offer.max_version,
                    attempt=self.stats.hellos_sent)
        node.send(packet)
        self._hello_timer.rearm(self.handshake.config.retry_s)

    def _hello_retry(self) -> None:
        if self.session.ready or self.quarantined:
            return
        signal = self.handshake.unanswered(self.stats.hellos_sent,
                                           self.sim.now)
        if signal is not None:
            self._record_signal(signal)
            if self.quarantined:
                return  # that signal tripped quarantine: stop offering
        self._send_hello()

    def _on_hello_ack(self, packet: Packet, ack: HelloAckMessage) -> None:
        self.stats.hello_acks_received += 1
        if self.handshake is None or self.session.ready:
            return  # unsolicited or duplicate answer
        self.handshake_bytes += packet.size_bytes
        signal = self.handshake.on_hello_ack(ack, self.sim.now)
        if signal is not None:
            self.stats.transcript_mismatches += 1
            self._record_signal(signal)
            return
        self.peer = packet.src
        self.assistance_started_at = self.sim.now
        self._hello_timer.cancel()
        self._trace("sidecar.negotiated", role="consumer",
                    version=ack.version, features=ack.features,
                    handshake_bytes=self.handshake_bytes)

    def request_version_switch(self, version: int) -> bool:
        """Flip the session's wire version mid-connection, without a reset.

        Returns False when the switch is not possible (no negotiation,
        above the negotiated ceiling, or the peer did not offer the
        version-switch feature); :mod:`repro.sidecar.negotiate` has what
        each side does around one.
        """
        handshake = self.handshake
        if handshake is None or not self.session.ready:
            return False
        if version == self.session.wire_version:
            return True
        if not handshake.may_switch(version) or self.peer is None:
            return False
        self._send_control(VersionSwitchMessage(
            flow_id=self.flow_id, version=version, epoch=self.reset.epoch))
        handshake.switch(version)
        self.stats.version_switches += 1
        self._trace("sidecar.version_switch", role="consumer",
                    version=version, epoch=self.reset.epoch)
        return True

    # -- control datagrams: HELLO-ACK and the resume handshake --------------------

    def _on_control_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, CorruptFrame):
            if not message.flow_id or message.flow_id == self.flow_id:
                self.stats.control_corrupt_frames += 1
        elif getattr(message, "flow_id", None) != self.flow_id:
            pass  # another flow's session, or not a control message
        elif isinstance(message, HelloAckMessage):
            self._on_hello_ack(packet, message)
        elif isinstance(message, ResumeMessage):
            self._on_resume(packet, message)

    def _on_resume(self, packet: Packet, message: ResumeMessage) -> None:
        self.stats.resumes_received += 1
        reset, now = self.reset, self.sim.now
        sent_count = self.consumer.sent_count
        # No handshake with a quarantined peer: probation is earned
        # through clean snapshots, not announcements.
        verdict = "quarantined" if self.quarantined else resume_verdict(
            message.epoch, message.count, reset.epoch, sent_count,
            reset.modulus)
        if verdict == "implausible" and self.validator is not None:
            self._record_signal(self.validator.check_resume(
                message.epoch, message.count, current_epoch=reset.epoch,
                sent_count=sent_count, now=now))
        if verdict == "plausible":
            if self.handshake is None:
                self.peer = packet.src
            reset.rebase(message.count)
            self._retry_timer.cancel()
            if self.validator is not None:
                self.validator.rewind(message.count)
            self.consumer.arm_reconciliation()
            self.stats.resumes_accepted += 1
        else:
            self.stats.resumes_rejected += 1
        self._trace("sidecar.resume", role="consumer",
                    phase="accepted" if verdict == "plausible" else "rejected",
                    epoch=message.epoch, count=message.count)
        if verdict == "stale" \
                or (verdict == "implausible" and not self.quarantined):
            self._send_reset()

    # -- reset protocol (Section 3.3) -------------------------------------------

    def _register_failure(self) -> None:
        self.stats.decode_failures += 1
        self._note_health_failure("decode failure")
        if self.reset.on_failure(self.quarantined):
            self._begin_reset("decode failures")

    def _begin_reset(self, reason: str) -> None:
        self.stats.resets_initiated += 1
        self.reset.settling = True
        self._retry_timer.cancel()
        self._pause()
        self.sim.schedule(self.reset.settle_time, self._complete_reset,
                          reason)

    def _complete_reset(self, reason: str) -> None:
        # The pipe has drained: restart the session state.
        self.consumer.reset()
        reset = self.reset
        retry_delay = reset.next_epoch()
        self._trace("sidecar.reset", epoch=reset.epoch, reason=reason)
        self._send_reset()
        self._retry_timer.rearm(retry_delay)
        self.sim.schedule(reset.settle_time, self._settled)

    def _settled(self) -> None:
        self.reset.settling = False
        self._resume()

    def _send_reset(self) -> None:
        if self.peer is not None:
            self._send_control(ResetMessage(flow_id=self.flow_id,
                                            epoch=self.reset.epoch))

    def _retry_reset(self) -> None:
        """The announcement clock fired: repeat it until confirmed."""
        if self.reset.confirmed or self.quarantined:
            return
        self.stats.reset_retries += 1
        self._trace("sidecar.reset_retry", epoch=self.reset.epoch)
        self._send_reset()
        self._retry_timer.rearm(self.reset.back_off())

    # -- health ladder ------------------------------------------------------------

    def _note_health_failure(self, reason: str) -> None:
        if self.monitor is None:
            return
        self.monitor.on_failure(self.sim.now, reason)
        self._sync_health()

    def _check_staleness(self, interval: float) -> None:
        if (not self.reset.settling and not self.monitor.e2e_only
                and self.monitor.is_stale(self.sim.now)):
            self.monitor.on_stale(self.sim.now)
            self._sync_health()
        self._staleness_timer.rearm(interval)


class ServerSidecar(ConsumerEndpoint):
    """The receiving role on the server: the log is what ``sender``
    transmits, the news moves its window hooks as far as the ladder
    allows (losses only if ``apply_losses``, as congestion only if
    ``congestive_loss``), a reset pauses it.  Other keyword options are
    :class:`ConsumerEndpoint`'s."""

    def __init__(self, sim: Simulator, sender: SenderConnection,
                 congestive_loss: bool = True, apply_losses: bool = True,
                 **options) -> None:
        self.sender = sender
        self.congestive_loss = congestive_loss
        self.apply_losses = apply_losses
        #: When a quACK-decoded loss last reached the sender (the chaos
        #: invariant "no induced signals after quarantine" reads it).
        self.last_loss_applied_at: float | None = None
        #: Was congestion control divided at construction?  Then the
        #: ladder moves it between the sidecar and the e2e ACKs.
        self._cc_divided = not sender.cc_from_acks
        super().__init__(sim, sender.host, sender.flow_id,
                         ConsumerEndpointStats(), **options)
        sender.add_send_listener(self._on_send)
        sender.host.add_handler(PacketKind.QUACK, self._on_quack_packet)
        sender.host.add_handler(PacketKind.CONTROL, self._on_control_packet)

    def _on_send(self, record: SentPacketRecord) -> None:
        self.consumer.record_send(record.identifier, record.packet_number,
                                  self.sim.now)

    def _pause(self) -> None:
        self.sender.pause()

    def _resume(self) -> None:
        self.sender.resume()

    def _sync_health(self) -> None:
        """Give a divided congestion controller to whom the ladder says."""
        if self._cc_divided:
            self.sender.cc_from_acks = not self.monitor.allow_cc_division

    def _apply(self, feedback: QuackFeedback, now: float) -> None:
        stats, monitor = self.stats, self.monitor
        if feedback.received:
            if monitor is None or monitor.allow_receipts:
                stats.receipts_applied += len(feedback.received)
                self.sender.sidecar_receipt(feedback.received)
            else:
                stats.receipts_suppressed += len(feedback.received)
        if feedback.lost and self.apply_losses:
            if monitor is None or monitor.allow_losses:
                stats.losses_applied += len(feedback.lost)
                self.last_loss_applied_at = now
                self.sender.sidecar_loss(feedback.lost,
                                         congestive=self.congestive_loss)
            else:
                stats.losses_suppressed += len(feedback.lost)


class ProxyEmitterTap(EmitterEndpoint):
    """Proxy sidecar that quACKs forwarded DATA packets to the server.

    A pure observer on ``router``: watches ``flow_id`` packets heading
    toward ``client`` and quACKs them to ``server`` (the ACK-reduction
    proxy: "The proxy can send quACKs, e.g., every other packet", Section
    2.2).  Keyword options are :class:`EmitterEndpoint`'s.
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
