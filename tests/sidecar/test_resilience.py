"""Sidecar resilience: retry/backoff, restart detection, health ladder.

The hardening layer this file covers exists because a sidecar must be
*strictly optional* assistance (paper, Sections 1-2): every failure mode
of the sidecar channel -- lost handshakes, wiped middleboxes, corrupted
datagrams, silence -- must degrade the assistance, never the transport.
"""

import dataclasses

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.agents import HostEmitterAgent, ProxyEmitterTap, ServerSidecar
from repro.sidecar.defense import DefenseConfig
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.health import HealthConfig, HealthMonitor, HealthState
from repro.sidecar.negotiate import Capabilities, NegotiateConfig, respond
from repro.sidecar.protocol import (
    CorruptFrame,
    QuackMessage,
    ResetMessage,
    ResumeMessage,
    control_packet,
    quack_packet,
)
from repro.sidecar.reset import RETRY_CAP_S
from repro.transport.connection import ReceiverConnection, SenderConnection
from tests.sidecar.test_reset_protocol import fold_phantom
from tests.sidecar.test_sender_state_model import OutboxHost

SETTLE = 0.1


def build_assisted(total=1460 * 400, reset_after=2, health=None,
                   divide_cc=False):
    sim = Simulator()
    server = Host(sim, "server")
    proxy = Router(sim, "proxy")
    client = Host(sim, "client")
    build_path(sim, [server, proxy, client],
               [HopSpec(bandwidth_bps=5e6, delay_s=0.005),
                HopSpec(bandwidth_bps=5e6, delay_s=0.005)])
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    sender.cc_from_acks = not divide_cc
    tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                          flow_id="flow0", policy=PacketCountFrequency(4),
                          threshold=16)
    sidecar = ServerSidecar(sim, sender, threshold=16, grace=2,
                            apply_losses=False,
                            reset_after_failures=reset_after,
                            settle_time=SETTLE, health=health)
    return sim, sender, receiver, tap, sidecar


def run(sim, sender, receiver, deadline=60.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.25, deadline))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break


class TestStaleResets:
    """Satellite: out-of-order ResetMessage delivery must be harmless."""

    def make_tap(self):
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
        return sim, proxy, ProxyEmitterTap(
            sim, proxy, server="server", client="client", flow_id="flow0",
            policy=PacketCountFrequency(2))

    def test_older_epoch_reset_is_counted_not_applied(self):
        sim, proxy, tap = self.make_tap()
        tap._apply_reset(3)
        assert tap.epoch == 3 and tap.resets_applied == 1
        tap.emitter.observe(42, 0.0)
        tap._apply_reset(1)  # delayed duplicate of an old handshake
        assert tap.epoch == 3
        assert tap.stale_resets == 1
        assert tap.emitter.quack.count == 1  # accumulator untouched

    def test_same_epoch_reset_is_idempotent_not_stale(self):
        sim, proxy, tap = self.make_tap()
        tap._apply_reset(2)
        tap._apply_reset(2)
        assert tap.resets_applied == 1
        assert tap.stale_resets == 0  # a duplicate is not "stale"

    def test_out_of_order_delivery_over_the_wire(self):
        """Two resets delivered newest-first: the session ends on the
        newest epoch and counts exactly one stale delivery."""
        sim, proxy, tap = self.make_tap()
        newer = control_packet("server", "proxy",
                               ResetMessage(flow_id="flow0", epoch=2), 0.0)
        older = control_packet("server", "proxy",
                               ResetMessage(flow_id="flow0", epoch=1), 0.0)
        proxy.receive(newer)
        proxy.receive(older)
        assert tap.epoch == 2
        assert tap.resets_applied == 1
        assert tap.stale_resets == 1
        assert tap.fault_counters()["stale_resets"] == 1

    def test_host_emitter_agent_counts_stale_resets_too(self):
        sim = Simulator()
        server = Host(sim, "server")
        client = Host(sim, "client")
        build_path(sim, [server, client], [HopSpec()])
        agent = HostEmitterAgent(sim, client, peer="server",
                                 flow_id="flow0",
                                 policy=PacketCountFrequency(2))
        agent._apply_reset(5)
        agent._apply_reset(4)
        assert agent.epoch == 5
        assert agent.stale_resets == 1


class TestCorruptFrameCounting:
    def test_emitter_counts_corrupt_control_frames(self):
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
        tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                              flow_id="flow0",
                              policy=PacketCountFrequency(2))
        mangled = Packet(src="server", dst="proxy", size_bytes=40,
                         kind=PacketKind.CONTROL, flow_id="flow0",
                         payload=CorruptFrame(frame=b"\x00" * 12,
                                              flow_id="flow0"))
        proxy.receive(mangled)
        assert tap.corrupt_frames == 1
        assert tap.epoch == 0  # nothing was applied

    def test_server_classifies_checksum_failure_as_wire_error(self):
        sim, sender, receiver, tap, sidecar = build_assisted()
        sender.start()
        sim.run(until=0.05)
        snapshot = PowerSumQuack(16)
        snapshot.insert(1234)
        pkt = quack_packet("proxy", "server", snapshot, "flow0", sim.now)
        bad = dataclasses.replace(
            pkt, payload=dataclasses.replace(
                pkt.payload,
                frame=pkt.payload.frame[:-1]
                + bytes([pkt.payload.frame[-1] ^ 0xFF])))
        failures_before = sidecar.reset.consecutive_failures
        sidecar.sender.host.receive(bad)
        assert sidecar.stats.wire_errors == 1
        assert sidecar.stats.decode_failures >= 1
        # Corruption must not push the session toward a reset: a reset
        # cannot fix a noisy channel.
        assert sidecar.reset.consecutive_failures == failures_before


class TestResetRetry:
    def test_lost_reset_is_retried_with_backoff(self):
        """Drop every CONTROL packet for a while: the epoch must still
        converge once the channel heals, via the retry timer."""
        sim, sender, receiver, tap, sidecar = build_assisted()
        proxy = tap.router
        # Interpose on the server->proxy link to swallow resets.
        link = sender.host.links["proxy"]
        original_deliver = link.deliver
        blackhole = {"on": True, "swallowed": 0}

        def deliver(packet):
            if blackhole["on"] and packet.kind is PacketKind.CONTROL:
                blackhole["swallowed"] += 1
                return
            original_deliver(packet)

        link.deliver = deliver
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)  # poison -> reset
        sim.run(until=1.0)
        assert sidecar.epoch == 1
        assert blackhole["swallowed"] >= 1
        assert tap.epoch == 0  # the emitter never heard the reset
        assert sidecar.stats.reset_retries >= 1
        blackhole["on"] = False  # channel heals
        run(sim, sender, receiver)
        sim.run(until=sim.now + 2.0)
        assert tap.epoch == sidecar.epoch  # retry converged the handshake
        assert receiver.complete

    def test_backoff_delay_doubles_to_cap(self):
        """Every unanswered announcement doubles the wait for the next,
        from two settle windows up to the cap -- on the wire, not just
        in the machine (``test_reset_protocol.TestResetMachine``)."""
        sim, sender, receiver, tap, sidecar = build_assisted()
        link = sender.host.links["proxy"]
        #: retry count -> when the first announcement under it left (the
        #: epoch's first, then one per firing of the retry clock; repeats
        #: that answer stale-epoch quACKs do not move the count).
        announced = {}

        def swallow(packet):
            if isinstance(packet.payload, ResetMessage):
                announced.setdefault(sidecar.stats.reset_retries, sim.now)
                return True  # the emitter never hears: every retry fires
            return send(packet)

        send, link.send = link.send, swallow
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)  # poison -> reset
        sim.run(until=12.0)
        assert sidecar.epoch == 1 and tap.epoch == 0
        times = [announced[count] for count in sorted(announced)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps[:4] == pytest.approx(
            [2 * SETTLE, 4 * SETTLE, 8 * SETTLE, 16 * SETTLE], abs=1e-3)
        assert max(gaps) == pytest.approx(RETRY_CAP_S, abs=1e-3)
        assert gaps[-1] == pytest.approx(RETRY_CAP_S, abs=1e-3)
        assert sidecar.reset.retry_delay == pytest.approx(RETRY_CAP_S)

    def test_current_epoch_quack_cancels_retry(self):
        sim, sender, receiver, tap, sidecar = build_assisted()
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)
        run(sim, sender, receiver)
        assert sidecar.epoch >= 1
        assert sidecar.reset.confirmed
        retries = sidecar.stats.reset_retries
        sim.run(until=sim.now + 3 * RETRY_CAP_S)
        assert sidecar.stats.reset_retries == retries  # the clock stopped


class TestUntrustedDatagramsDoNotMoveThePeer:
    """With negotiation armed the peer is configured, then confirmed by
    the handshake; a datagram that fails a gate must not re-point it."""

    def build(self):
        sim = Simulator()
        server = OutboxHost(sim, "server")  # sends are kept, not routed
        sender = SenderConnection(sim, server, "client", 1460 * 100)
        sidecar = ServerSidecar(sim, sender, threshold=16,
                                reset_after_failures=2, settle_time=SETTLE,
                                defense=DefenseConfig(),
                                negotiate=NegotiateConfig(), peer="proxy")
        sim.run(until=0.0)  # the first HELLO
        return sim, server, sidecar

    def sidecar_datagrams(self, server):
        return [packet for _, _, packet in server.outbox
                if packet.kind is not PacketKind.DATA]

    def test_quack_before_the_handshake_leaves_the_peer_alone(self):
        sim, server, sidecar = self.build()
        assert [p.dst for p in self.sidecar_datagrams(server)] == ["proxy"]
        server.receive(quack_packet("mallory", "server", PowerSumQuack(16),
                                    "flow0", sim.now))
        assert sidecar.stats.quacks_before_negotiation == 1
        sim.run(until=1.0)  # HELLO retries
        offers = self.sidecar_datagrams(server)
        assert len(offers) > 2
        assert {p.dst for p in offers} == {"proxy"}

    def test_rejected_resume_leaves_the_peer_alone(self):
        sim, server, sidecar = self.build()
        offer = self.sidecar_datagrams(server)[0].payload
        server.receive(control_packet(
            "proxy", "server", respond(offer, Capabilities()), sim.now))
        assert sidecar.negotiated_version == 2
        # A resume for an epoch never issued, from somewhere else: it is
        # rejected, and the full reset that answers it goes to the peer.
        server.receive(control_packet(
            "mallory", "server",
            ResumeMessage(flow_id="flow0", epoch=3, count=0), sim.now))
        assert sidecar.stats.resumes_rejected == 1
        answer = self.sidecar_datagrams(server)[-1]
        assert isinstance(answer.payload, ResetMessage)
        assert answer.dst == "proxy"
        assert sidecar.request_version_switch(2)
        assert self.sidecar_datagrams(server)[-1].dst == "proxy"


class TestRestartDetection:
    def test_count_regression_triggers_implicit_reset(self):
        sim, sender, receiver, tap, sidecar = build_assisted(
            total=1460 * 800)
        sender.start()
        sim.run(until=0.5)
        assert tap.emitter.quack.count > sidecar.reset.restart_margin
        tap.crash_restart()
        assert tap.restarts == 1
        run(sim, sender, receiver)
        assert receiver.complete
        assert sidecar.stats.restarts_detected >= 1
        assert sidecar.stats.resets_initiated >= 1
        sim.run(until=sim.now + 2.0)
        assert tap.epoch == sidecar.epoch

    def test_small_regression_is_reordering_not_restart(self):
        """A snapshot that lags by a few packets (datagram reordering)
        must not be mistaken for a crash."""
        sim, sender, receiver, tap, sidecar = build_assisted()
        sender.start()
        sim.run(until=0.3)
        last = sidecar.reset.last_emitter_count
        assert last is not None and last > 2
        lagging = PowerSumQuack(16)
        lagging._count = last - 2  # tiny regression
        sidecar.sender.host.receive(quack_packet(
            "proxy", "server", lagging, "flow0", sim.now))
        assert not sidecar.reset.restarted(last - 2)
        assert sidecar.stats.restarts_detected == 0
        assert sidecar.stats.resets_initiated == 0


class TestHealthLadderUnit:
    def test_escalation_and_gating(self):
        monitor = HealthMonitor(HealthConfig(degrade_after=2,
                                             e2e_only_after=4,
                                             stale_after=1.0,
                                             probation=0.5))
        assert monitor.allow_receipts and monitor.allow_losses
        monitor.on_failure(0.1)
        assert monitor.state is HealthState.HEALTHY
        monitor.on_failure(0.2)
        assert monitor.state is HealthState.DEGRADED
        assert monitor.allow_receipts and not monitor.allow_losses
        monitor.on_failure(0.3)
        monitor.on_failure(0.4)
        assert monitor.state is HealthState.E2E_ONLY
        assert not monitor.allow_receipts and not monitor.allow_losses

    def test_cc_division_is_allowed_exactly_while_receipts_flow(self):
        monitor = HealthMonitor(HealthConfig())
        for state in HealthState:
            monitor.state = state
            assert monitor.allow_cc_division == monitor.allow_receipts
            assert monitor.allow_cc_division == (
                state in (HealthState.HEALTHY, HealthState.DEGRADED))

    def test_recovery_needs_a_clean_probation(self):
        monitor = HealthMonitor(HealthConfig(probation=0.5))
        for t in range(5):
            monitor.on_failure(float(t))
        assert monitor.state is HealthState.E2E_ONLY
        monitor.on_good_quack(10.0)
        assert monitor.state is HealthState.RECOVERING
        monitor.on_good_quack(10.2)  # probation not yet served
        assert monitor.state is HealthState.RECOVERING
        monitor.on_good_quack(10.6)
        assert monitor.state is HealthState.HEALTHY
        assert monitor.stats.recoveries == 1

    def test_failure_during_probation_falls_back(self):
        monitor = HealthMonitor(HealthConfig(probation=0.5))
        for t in range(5):
            monitor.on_failure(float(t))
        monitor.on_good_quack(10.0)
        monitor.on_failure(10.1)
        assert monitor.state is HealthState.E2E_ONLY

    def test_staleness(self):
        monitor = HealthMonitor(HealthConfig(stale_after=1.0))
        assert monitor.is_stale(1.0)  # never heard a quACK
        monitor.on_good_quack(1.0)
        assert not monitor.is_stale(1.5)
        assert monitor.is_stale(2.0)
        monitor.on_stale(2.0)
        assert monitor.state is HealthState.E2E_ONLY

    def test_transition_audit_trail(self):
        monitor = HealthMonitor(HealthConfig(degrade_after=1,
                                             e2e_only_after=2))
        monitor.on_failure(0.5)
        monitor.on_failure(0.7)
        trail = monitor.stats.transitions
        assert [(t.old, t.new) for t in trail] == [
            (HealthState.HEALTHY, HealthState.DEGRADED),
            (HealthState.DEGRADED, HealthState.E2E_ONLY),
        ]
        assert trail[0].time == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(degrade_after=5, e2e_only_after=2)
        with pytest.raises(ValueError):
            HealthConfig(stale_after=0.0)


class TestHealthIntegration:
    HEALTH = HealthConfig(degrade_after=2, e2e_only_after=5,
                          stale_after=0.25, probation=0.25)

    def test_receipts_suppressed_in_e2e_only(self):
        sim, sender, receiver, tap, sidecar = build_assisted(
            reset_after=None, health=self.HEALTH)
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)  # every decode now fails
        run(sim, sender, receiver)
        assert receiver.complete  # transport never depended on it
        assert sidecar.health_state is HealthState.E2E_ONLY
        assert sidecar.stats.receipts_suppressed >= 0
        counters = sidecar.fault_counters()
        assert counters["health"] == "e2e_only"

    def test_cc_division_handed_back_in_e2e_only(self):
        sim, sender, receiver, tap, sidecar = build_assisted(
            reset_after=None, health=self.HEALTH, divide_cc=True)
        assert sender.cc_from_acks is False
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)
        run(sim, sender, receiver)
        assert sidecar.health_state is HealthState.E2E_ONLY
        # The e2e ACKs drive congestion control again: no starvation.
        assert sender.cc_from_acks is True
        assert receiver.complete

    def test_without_health_config_behavior_is_legacy(self):
        sim, sender, receiver, tap, sidecar = build_assisted()
        assert sidecar.monitor is None
        assert sidecar.health_state is HealthState.HEALTHY
        sender.start()
        run(sim, sender, receiver)
        assert receiver.complete
        assert sidecar.stats.receipts_suppressed == 0
