"""A model of the sender side as a whole: every machine armed, any order.

The chaos plans are hand-written histories; this is the rest of the
space.  Hypothesis plays the network between a real
:class:`~repro.sidecar.agents.ServerSidecar` (reset protocol, health
ladder, defense and negotiation all armed, congestion control divided)
and a real :class:`~repro.sidecar.agents.ProxyEmitterTap` (negotiation
and checkpoints armed).  Nothing is linked: whatever a node sends lands
in an outbox, DATA is walked past the tap to a real receiver at once,
and every datagram of the sidecar channel waits until a rule delivers,
loses, mangles or forges it -- so the rules *are* the channel, honest
and hostile, and the only other thing that happens is time.

Only the public surface is read (``stats``, ``epoch``, ``health_state``,
``fault_counters()``, the monitor's transition trail, the sender's
``paused``/``cc_from_acks``) plus what is observable on the wire, so the
same file holds before and after the state behind that surface moves.
After every step:

* neither side's epoch goes backwards (a crash aside, which loses it),
  and the emitter never runs ahead of the consumer;
* no datagram begins a reset on a QUARANTINED channel, or while
  proving the channel is one;
* announcements of an unconfirmed epoch are retried no further apart
  than the retry cap;
* the sender is paused exactly for the two settle windows of a reset;
* HEALTHY is re-entered only from RECOVERING, QUARANTINED left only for
  RECOVERING;
* with congestion control divided, ``sender.cc_from_acks`` is exactly
  "the ladder has taken the sidecar's signals away";
* receipts move the window only on HEALTHY/DEGRADED, losses only on
  HEALTHY;
* ``QUARANTINE_AFTER`` signals inside ``SIGNAL_WINDOW_S`` on a
  non-QUARANTINED channel end QUARANTINED, re-admitted or not;
* frames stamped v1 carry no feature bits, v2 frames the negotiated
  ones, and no wire version exceeds the negotiated ceiling;
* nothing raises.
"""

import dataclasses

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.strawman import HashQuack
from repro.sidecar.agents import ProxyEmitterTap, ServerSidecar
from repro.sidecar.defense import (
    QUARANTINE_AFTER,
    SIGNAL_WINDOW_S,
    DefenseConfig,
)
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.health import HealthConfig, HealthState
from repro.sidecar.negotiate import (
    ALL_FEATURES,
    Capabilities,
    NegotiateConfig,
    respond,
)
from repro.sidecar.protocol import (
    CorruptFrame,
    HelloMessage,
    QuackMessage,
    ResetMessage,
    ResumeMessage,
    control_packet,
    quack_packet,
)
from repro.sidecar.snapshot import CheckpointStore
from repro.transport.cc.fixed import FixedWindow
from repro.transport.connection import ReceiverConnection, SenderConnection

THRESHOLD = 8
SETTLE = 0.05
#: The ceiling of the doubling reset-retry delay, seconds.
RETRY_CAP = 2.0
EPS = 1e-9
FLOW = "flow0"
COUNT_MODULUS = 1 << 16
ASSISTING = (HealthState.HEALTHY, HealthState.DEGRADED)


class _Outbox:
    """Node mixin: sends are recorded, not routed.

    Each entry is ``(time, stamp(), packet)``; ``stamp`` lets the model
    read a counter at the moment of the send rather than when it gets
    round to routing the packet.
    """

    def send(self, packet):
        self.outbox.append((self.sim.now, self.stamp(), packet))
        return True


class OutboxHost(_Outbox, Host):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.outbox = []
        self.stamp = int


class OutboxRouter(Router):
    """A router whose every outgoing hop is the outbox: it forwards
    through its links, not through ``send``."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.outbox = []
        self.stamp = int
        for neighbor in ("server", "client"):
            self.attach_link(neighbor, _OutboxLink(self))
            self.add_route(neighbor, neighbor)


class _OutboxLink:
    """Stands in for a link: what goes on it lands in the node's outbox."""

    def __init__(self, node):
        self.node = node

    def send(self, packet):
        return _Outbox.send(self.node, packet)


class SenderSideMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        sim = self.sim = Simulator()
        self.server = OutboxHost(sim, "server")
        self.proxy = OutboxRouter(sim, "proxy")
        self.client = OutboxHost(sim, "client")
        total = 1460 * 100_000  # never completes: the model has no end
        self.receiver = ReceiverConnection(sim, self.client, "server", total)
        # A fixed window keeps a step's work bounded on a network with
        # no delay; which controller is divided is not what is modelled.
        self.sender = SenderConnection(sim, self.server, "client", total)
        self.sender.cc = FixedWindow(3 * THRESHOLD)
        self.sender.cc_from_acks = False
        self.tap = ProxyEmitterTap(
            sim, self.proxy, server="server", client="client", flow_id=FLOW,
            policy=PacketCountFrequency(2), threshold=THRESHOLD,
            checkpoints=CheckpointStore(), checkpoint_interval_s=0.04,
            negotiate=NegotiateConfig())
        self.sidecar = ServerSidecar(
            sim, self.sender, threshold=THRESHOLD, grace=1,
            apply_losses=True, congestive_loss=False,
            reset_after_failures=2, settle_time=SETTLE,
            health=HealthConfig(degrade_after=2, e2e_only_after=4,
                                stale_after=0.3, probation=0.03),
            defense=DefenseConfig(), negotiate=NegotiateConfig(),
            peer="proxy")
        #: Sidecar datagrams in flight toward the server, oldest first.
        self.channel = []
        #: End-to-end ACKs in flight toward the server.
        self.acks = []
        self.last_hello = None
        self.honest_quacks = []
        self.blackhole = False
        self.data_to_lose = 0
        # What the invariants compare the next state against.
        self.server_epoch = 0
        self.tap_epoch = 0
        self.resets_initiated = 0
        self.settle_until = 0.0
        #: epoch -> when its announcement clock was last (re)armed.
        self.announced_at = {}
        self.retries_seen = 0
        self.negotiated_version = None
        self.applied = (0, 0, 0)
        self.server.stamp = lambda: self.sidecar.stats.reset_retries
        self.sender.start()
        sim.run(until=0.0)  # the HELLO scheduled at t=0
        self._pump()

    # -- the network ----------------------------------------------------------

    def _pump(self):
        """Move everything that needs no decision: DATA past the tap to
        the receiver, control to the tap; queue the rest for the rules."""
        moved = True
        while moved:
            moved = False
            for node in (self.server, self.proxy, self.client):
                outbox, node.outbox = node.outbox, []
                for sent_at, retries, packet in outbox:
                    moved = True
                    self._route(node, sent_at, retries, packet)
        resets = self.sidecar.stats.resets_initiated
        if resets > self.resets_initiated:
            # Resets begin inside packet handlers, so at the current time.
            self.resets_initiated = resets
            self.settle_until = self.sim.now + 2 * SETTLE

    def _route(self, node, sent_at, retries, packet):
        payload = packet.payload
        if node is self.server:
            if isinstance(payload, HelloMessage):
                self.last_hello = payload
            if isinstance(payload, ResetMessage):
                self._note_announcement(sent_at, retries, payload.epoch)
            if packet.dst == "client" and self.data_to_lose:
                self.data_to_lose -= 1
            elif packet.dst == "client" or (packet.dst == "proxy"
                                            and not self.blackhole):
                self.proxy.receive(packet)
            # anything else went to an address nobody answers at
        elif node is self.proxy:
            if packet.dst == "client":
                self.client.receive(packet)
            elif packet.dst == "server":
                if packet.kind is PacketKind.QUACK:
                    self._check_frame(payload.frame)
                self.channel.append(packet)
        elif packet.dst == "server":
            self.acks.append(packet)

    def _note_announcement(self, sent_at, retries, epoch):
        if epoch not in self.announced_at:
            self.announced_at[epoch] = sent_at  # armed with the first one
        elif retries > self.retries_seen:
            # Timer-driven: the delay it waited is the gap to the last arm.
            gap = sent_at - self.announced_at[epoch]
            assert 2 * SETTLE - EPS <= gap <= RETRY_CAP + EPS, gap
            self.announced_at[epoch] = sent_at
        self.retries_seen = retries

    def _check_frame(self, frame):
        version = wire.frame_version(frame)
        assert 1 <= version <= (self.sidecar.negotiated_version or 1)
        expected = ALL_FEATURES & 0xFF if version >= 2 else 0
        assert wire.frame_features(frame) == expected

    def _to_server(self, packet):
        """One sidecar datagram reaches the server.  Only these begin
        resets, and none may on a channel that is (or that this very
        datagram proves to be) lying."""
        resets = self.sidecar.stats.resets_initiated
        quarantined = self.sidecar.quarantined
        self.server.receive(packet)
        if self.sidecar.stats.resets_initiated > resets:
            assert not quarantined and not self.sidecar.quarantined
        self._pump()

    def _session_frame(self):
        """Wire version and feature bits a forger would copy."""
        version = self.sidecar.fault_counters()["wire_version"]
        return version, (ALL_FEATURES & 0xFF if version >= 2 else 0)

    def _accumulator_at(self, count):
        """The tap's own sums, presented under another count."""
        quack = self.tap.emitter.quack.copy()
        quack._count = count % COUNT_MODULUS
        return quack

    # -- rules: the honest channel --------------------------------------------

    @initialize(rounds=st.integers(0, 3))
    def warm_up(self, rounds):
        """Start cold (handshake pending) or a few round trips in."""
        for _ in range(rounds):
            self.round_trip()

    @rule()
    def round_trip(self):
        """What is in flight arrives, in order, and a little time passes."""
        for _ in range(len(self.channel)):
            self.deliver()
        self.deliver_acks()
        self.time_passes(0.01)

    @precondition(lambda self: self.channel)
    @rule()
    def deliver(self):
        packet = self.channel.pop(0)
        if packet.kind is PacketKind.QUACK:
            self.honest_quacks.append(packet)
            del self.honest_quacks[:-40]
        self._to_server(packet)

    @precondition(lambda self: self.channel)
    @rule()
    def lose(self):
        self.channel.pop(0)

    @precondition(lambda self: len(self.channel) > 1)
    @rule()
    def reorder(self):
        self.channel.append(self.channel.pop(0))

    @rule()
    def deliver_acks(self):
        acks, self.acks = self.acks, []
        for packet in acks:
            self.server.receive(packet)
        self._pump()

    @rule(dt=st.sampled_from((0.003, 0.02, 0.06, 0.13, 0.35, 1.1)))
    def time_passes(self, dt):
        self.sim.run(until=self.sim.now + dt)
        self._pump()

    @rule(on=st.booleans())
    def control_blackhole(self, on):
        """Resets, offers and switches toward the proxy get lost (or not)."""
        self.blackhole = on

    @rule(packets=st.integers(1, THRESHOLD + 2))
    def data_loss(self, packets):
        """The next few DATA packets die before the proxy sees them."""
        self.data_to_lose = packets

    # -- rules: a faulty or lying channel -------------------------------------

    @precondition(lambda self: self.channel)
    @rule(data=st.data())
    def corrupt_frame(self, data):
        packet = self.channel.pop(0)
        if packet.kind is PacketKind.QUACK:
            frame = bytearray(packet.payload.frame)
            index = data.draw(st.integers(3, len(frame) - 1))
            frame[index] ^= 0xFF
            payload = dataclasses.replace(packet.payload, frame=bytes(frame))
        else:  # a control datagram that no longer parses
            payload = CorruptFrame(frame=b"\x00" * 12, flow_id=FLOW)
        self._to_server(dataclasses.replace(packet, payload=payload))

    @rule(times=st.integers(1, 3))
    def alien_scheme_quack(self, times):
        """Undecodable for structural reasons: failures, but no lie."""
        version, features = self._session_frame()
        frame = wire.encode(HashQuack(), version=version, features=features)
        for _ in range(times):
            self._to_server(Packet(
                src="proxy", dst="server", size_bytes=28 + len(frame),
                kind=PacketKind.QUACK, flow_id=FLOW,
                payload=QuackMessage(frame=frame, flow_id=FLOW,
                                     epoch=self.sidecar.epoch)))

    @rule(kind=st.sampled_from(("undecodable", "stale-epoch", "future-epoch",
                                "regressed", "ahead", "other-version",
                                "stranger")),
          amount=st.integers(1, 6 * THRESHOLD))
    def forged_quack(self, kind, amount):
        """A checksum-valid snapshot no honest observer would send."""
        quack = self.tap.emitter.quack.copy()
        epoch, src = self.sidecar.epoch, "proxy"
        version, features = self._session_frame()
        if kind == "undecodable":
            # Counts in range, sums that decode to nothing in the log.
            quack.insert(amount)
            quack._count = (quack.count - 1) % COUNT_MODULUS
        elif kind == "stale-epoch":
            epoch = max(epoch - 1 - amount % 2, 0)
        elif kind == "future-epoch":
            epoch += 1
        elif kind == "regressed":
            quack = self._accumulator_at(quack.count - amount)
        elif kind == "ahead":
            quack = self._accumulator_at(
                self.sidecar.consumer.sent_count + amount)
        elif kind == "other-version":
            version = 3 - version
            features = ALL_FEATURES & 0xFF if version >= 2 else 0
        else:
            src = "mallory"  # unsolicited, from an address never configured
        self._to_server(quack_packet(src, "server", quack, FLOW, self.sim.now,
                                     epoch=epoch, version=version,
                                     features=features))

    @precondition(lambda self: self.honest_quacks)
    @rule(data=st.data())
    def replayed_quack(self, data):
        """An old honest snapshot again: a small or a large regression."""
        self._to_server(data.draw(st.sampled_from(self.honest_quacks)))

    @rule(kind=st.sampled_from(("plausible", "ahead", "future", "past")),
          src=st.sampled_from(("proxy", "proxy", "mallory")))
    def resume(self, kind, src):
        epoch = self.sidecar.epoch
        count = self.tap.emitter.quack.count
        if kind == "ahead":
            count = self.sidecar.consumer.sent_count + 5
        elif kind == "future":
            epoch += 1
        elif kind == "past":
            if epoch == 0:
                return
            epoch -= 1
        self._to_server(control_packet(
            src, "server",
            ResumeMessage(flow_id=FLOW, epoch=epoch,
                          count=count % COUNT_MODULUS), self.sim.now))

    @precondition(lambda self: self.last_hello is not None)
    @rule(kind=st.sampled_from(("good", "tampered", "clamped")))
    def hello_ack(self, kind):
        """Good (a duplicate once the session stands), or answering an
        offer the server never made."""
        offer = self.last_hello
        if kind == "clamped":  # an on-path rewrite pinning the session at v1
            offer = dataclasses.replace(offer, max_version=1)
        ack = respond(offer, Capabilities())
        if kind == "tampered":
            ack = dataclasses.replace(ack, transcript=bytes(32))
        self._to_server(control_packet("proxy", "server", ack, self.sim.now))

    # -- rules: the endpoints' own moves --------------------------------------

    @rule()
    def emitter_crash(self):
        self.tap.crash_restart()
        self.tap_epoch = self.tap.epoch  # volatile: a crash may lose it
        self._pump()

    @rule(version=st.sampled_from((1, 2)))
    def version_switch(self, version):
        self.sidecar.request_version_switch(version)
        self._pump()

    # -- invariants -----------------------------------------------------------

    @invariant()
    def epochs_only_move_forward(self):
        assert self.sidecar.epoch >= self.server_epoch
        assert self.tap.epoch >= self.tap_epoch
        assert self.tap.epoch <= self.sidecar.epoch
        self.server_epoch = self.sidecar.epoch
        self.tap_epoch = self.tap.epoch

    @invariant()
    def paused_exactly_while_settling(self):
        now = self.sim.now
        if now < self.settle_until - EPS:
            assert self.sender.paused
        elif now > self.settle_until + EPS:
            assert not self.sender.paused

    @invariant()
    def ladder_is_climbed_one_way(self):
        for hop in self.sidecar.monitor.stats.transitions:
            if hop.new is HealthState.HEALTHY:
                assert hop.old is HealthState.RECOVERING
            if hop.old is HealthState.QUARANTINED:
                assert hop.new is HealthState.RECOVERING
        assert self.sidecar.quarantined == (
            self.sidecar.health_state is HealthState.QUARANTINED)

    @invariant()
    def divided_congestion_control_follows_the_ladder(self):
        assisting = self.sidecar.health_state in ASSISTING
        assert self.sender.cc_from_acks == (not assisting)

    @invariant()
    def withheld_signals_stay_withheld(self):
        """A step spent wholly on one rung applies only what it allows."""
        stats, monitor = self.sidecar.stats, self.sidecar.monitor
        applied = (len(monitor.stats.transitions), stats.receipts_applied,
                   stats.losses_applied)
        hops, receipts, losses = self.applied
        if applied[0] == hops:
            if monitor.state not in ASSISTING:
                assert stats.receipts_applied == receipts
            if monitor.state is not HealthState.HEALTHY:
                assert stats.losses_applied == losses
        self.applied = applied

    @invariant()
    def a_lying_channel_ends_quarantined(self):
        """Signals ledgered strictly after the ladder last left
        QUARANTINED were all judged on the rung it is on now."""
        if self.sidecar.quarantined:
            return
        readmitted = max((hop.time
                          for hop in self.sidecar.monitor.stats.transitions
                          if hop.old is HealthState.QUARANTINED), default=-1.0)
        fresh = [signal.time for signal in self.sidecar.ledger.signals
                 if signal.time > readmitted]
        for first, last in zip(fresh, fresh[QUARANTINE_AFTER - 1:]):
            assert last - first >= SIGNAL_WINDOW_S, (first, last)

    @invariant()
    def wire_version_stays_under_the_negotiated_ceiling(self):
        negotiated = self.sidecar.negotiated_version
        if self.negotiated_version is not None:
            assert negotiated == self.negotiated_version  # agreed once
        self.negotiated_version = negotiated
        for agent in (self.sidecar, self.tap):
            version = agent.fault_counters()["wire_version"]
            assert 1 <= version <= (negotiated or 1)


TestSenderSideMachine = SenderSideMachine.TestCase
TestSenderSideMachine.settings = settings(deadline=None)
