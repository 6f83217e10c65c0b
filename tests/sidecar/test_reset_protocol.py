"""Tests for the epoch/reset protocol (paper Section 3.3).

"If the number of missing packets exceeds the threshold, the sender and
receiver must reset the connection if they wish to use the quACK."  The
implementation generalizes this to any unrecoverable decode divergence:
drain, restart the cumulative state under a new epoch, and discard stale
snapshots.  These tests poison a live session on purpose and watch it
heal -- whichever of the three holders of the receiving role
(:class:`~repro.sidecar.agents.ConsumerEndpoint`) it belongs to.
"""

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.packet import PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar import cc_division, retransmission
from repro.sidecar.agents import (
    HostEmitterAgent,
    ProxyEmitterTap,
    ServerSidecar,
)
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency
from repro.sidecar.reset import RETRY_CAP_S, ResetInitiator, epoch_verdict
from repro.transport.connection import ReceiverConnection, SenderConnection

SETTLE = 0.1


HOLDERS = ("server", "pacing-proxy", "retx-proxy")


def build_assisted(total=1460 * 400, reset_after=2, holder="server",
                   monkeypatch=None):
    """One assisted transfer; returns ``(sim, sender, receiver, emitter,
    consumer)`` with ``consumer`` the ``holder`` of the receiving role.
    The proxies take ``reset_after`` from their module constant."""
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    routers = [Router(sim, name) for name in
               (("p1", "p2") if holder == "retx-proxy" else ("proxy",))]
    # Slow enough that the transfer (~585 KB) outlives a mid-flight reset.
    build_path(sim, [server, *routers, client],
               [HopSpec(bandwidth_bps=5e6, delay_s=0.005)
                for _ in range(len(routers) + 1)])
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    if holder == "server":
        emitter = ProxyEmitterTap(
            sim, routers[0], server="server", client="client",
            flow_id="flow0", policy=PacketCountFrequency(4), threshold=16)
        consumer = ServerSidecar(sim, sender, threshold=16, grace=2,
                                 apply_losses=False,
                                 reset_after_failures=reset_after,
                                 settle_time=SETTLE)
    elif holder == "pacing-proxy":
        monkeypatch.setattr(cc_division, "RESET_AFTER_FAILURES", reset_after)
        emitter = HostEmitterAgent(sim, client, peer="proxy",
                                   flow_id="flow0",
                                   policy=IntervalFrequency(0.01),
                                   threshold=16)
        consumer = cc_division.PacingProxy(
            sim, routers[0], server="server", client="client",
            flow_id="flow0", threshold=16)
        server.add_handler(PacketKind.QUACK, lambda packet: None)
    else:
        monkeypatch.setattr(retransmission, "RESET_AFTER_FAILURES",
                            reset_after)
        emitter = ProxyEmitterTap(
            sim, routers[1], server="p1", client="client", flow_id="flow0",
            policy=PacketCountFrequency(4), threshold=16)
        consumer = retransmission.SenderSideRetxProxy(
            sim, routers[0], peer_proxy="p2", client="client",
            flow_id="flow0", threshold=16)
    return sim, sender, receiver, emitter, consumer


def run(sim, sender, receiver, deadline=60.0):
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.25, deadline))
        if sender.complete and receiver.complete:
            break
        if sim.peek_next_time() is None:
            break


def fold_phantom(emitter, identifier=0xDEADBEEF):
    """Poisoning, used throughout: the emitter folds an identifier nobody
    sent, so every snapshot it emits from here on differs from the
    consumer's sums by something that is in no log -- the same class of
    divergence a wrongly-declared loss causes -- and every decode fails
    until the session resets (which replaces the emitter's sums)."""
    emitter.emitter.quack.insert(identifier)


class TestRecovery:
    @pytest.mark.parametrize("holder", HOLDERS)
    def test_session_heals_after_reset(self, holder, monkeypatch):
        sim, sender, receiver, emitter, consumer = build_assisted(
            holder=holder, monkeypatch=monkeypatch)
        sender.start()
        sim.run(until=0.1)
        confirmed_before = consumer.consumer.stats.confirmed_received
        assert confirmed_before > 0
        fold_phantom(emitter)
        run(sim, sender, receiver)
        assert receiver.complete
        assert consumer.stats.resets_initiated >= 1
        assert emitter.resets_applied >= 1
        assert emitter.epoch == consumer.epoch
        # The session worked again after the reset: more packets were
        # confirmed than had been before the poisoning.
        assert consumer.consumer.stats.confirmed_received > confirmed_before
        # And failures stopped accumulating once healed.
        assert consumer.reset.consecutive_failures < 2

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_without_reset_the_session_stays_broken(self, holder,
                                                    monkeypatch):
        sim, sender, receiver, emitter, consumer = build_assisted(
            reset_after=None, holder=holder, monkeypatch=monkeypatch)
        sender.start()
        sim.run(until=0.1)
        fold_phantom(emitter)
        run(sim, sender, receiver, deadline=10.0)
        # The transport never depended on it -- except through the
        # pacing proxy's custody, which only the expiry sweep releases.
        assert receiver.complete or holder == "pacing-proxy"
        assert consumer.stats.resets_initiated == 0 and emitter.epoch == 0
        assert consumer.stats.decode_failures > 5  # every quACK failed

    def test_transfer_completes_despite_pause(self):
        """The reset pauses the sender twice for settle_time; the
        transfer must simply take a bit longer, not wedge."""
        sim, sender, receiver, tap, sidecar = build_assisted()
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)
        run(sim, sender, receiver)
        assert sender.complete and receiver.complete
        assert receiver.stats.bytes_received == 1460 * 400

    def test_stale_epoch_quacks_discarded_and_answered(self):
        """A snapshot from the abandoned epoch arriving after the reset
        is discarded, and the emitter is reminded with a fresh reset (so
        a lost ResetMessage cannot wedge the handshake)."""
        from repro.quack.power_sum import PowerSumQuack
        from repro.sidecar.protocol import quack_packet

        sim, sender, receiver, tap, sidecar = build_assisted()
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)
        run(sim, sender, receiver)
        assert sidecar.epoch >= 1
        # Replay an epoch-0 snapshot at the server.
        stale = PowerSumQuack(16)
        stale.insert(4242)
        releases = sender.stats.sidecar_releases
        sidecar.sender.host.receive(quack_packet(
            "proxy", "server", stale, "flow0", sim.now, epoch=0))
        assert sidecar.stats.stale_epoch_quacks >= 1
        assert sender.stats.sidecar_releases == releases  # not processed
        sim.run(until=sim.now + 1.0)
        # The reminder reset reached the emitter (already at that epoch).
        assert tap.epoch == sidecar.epoch

    def test_multiple_poisonings_multiple_epochs(self):
        sim, sender, receiver, tap, sidecar = build_assisted(
            total=1460 * 800)
        sender.start()
        sim.run(until=0.1)
        fold_phantom(tap)
        sim.run(until=2.0)
        first_epoch = sidecar.epoch
        assert first_epoch >= 1
        fold_phantom(tap, 0xFEEDFACE)
        run(sim, sender, receiver)
        assert receiver.complete
        assert sidecar.epoch > first_epoch
        assert tap.epoch == sidecar.epoch


class TestEpochPlumbing:
    def test_emitter_ignores_stale_and_duplicate_resets(self):
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
        tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                              flow_id="flow0",
                              policy=PacketCountFrequency(2))
        tap._apply_reset(2)
        assert tap.epoch == 2 and tap.resets_applied == 1
        tap._apply_reset(2)  # duplicate
        tap._apply_reset(1)  # stale
        assert tap.epoch == 2 and tap.resets_applied == 1
        tap._apply_reset(5)
        assert tap.epoch == 5 and tap.resets_applied == 2

    def test_reset_clears_the_emitter_accumulator(self):
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
        tap = ProxyEmitterTap(sim, proxy, server="server", client="client",
                              flow_id="flow0",
                              policy=PacketCountFrequency(2))
        tap.emitter.observe(123, 0.0)
        assert tap.emitter.quack.count == 1
        tap._apply_reset(1)
        assert tap.emitter.quack.count == 0


class TestResetMachine:
    """The consumer's half as a machine: events in, verdicts out -- no
    simulator, no transport."""

    COUNT_BITS = 16
    MODULUS = 1 << COUNT_BITS

    def make(self, reset_after=2):
        return ResetInitiator(threshold=16, count_bits=self.COUNT_BITS,
                              reset_after_failures=reset_after,
                              settle_time=SETTLE)

    def test_consecutive_failures_trigger_once_per_drain(self):
        reset = self.make()
        assert not reset.on_failure(quarantined=False)
        assert reset.on_failure(quarantined=False)
        reset.settling = True  # the owner began draining
        assert not reset.on_failure(quarantined=False)

    def test_a_decode_in_between_restarts_the_count(self):
        reset = self.make()
        assert not reset.on_failure(quarantined=False)
        reset.on_decoded(40)
        assert reset.consecutive_failures == 0
        assert not reset.on_failure(quarantined=False)

    def test_never_on_a_quarantined_channel_or_when_disarmed(self):
        reset = self.make()
        reset.on_failure(quarantined=True)
        assert not reset.on_failure(quarantined=True)
        disarmed = self.make(reset_after=None)
        assert not any(disarmed.on_failure(quarantined=False)
                       for _ in range(10))

    def test_next_epoch_opens_unconfirmed_with_a_clean_slate(self):
        reset = self.make()
        reset.on_decoded(40)
        reset.on_failure(quarantined=False)
        assert reset.next_epoch() == pytest.approx(2 * SETTLE)
        assert reset.epoch == 1 and not reset.confirmed
        assert reset.consecutive_failures == 0
        assert reset.last_emitter_count is None

    def test_backoff_doubles_to_the_cap(self):
        reset = self.make()
        delays = [reset.next_epoch()] + [reset.back_off() for _ in range(8)]
        assert delays[:4] == pytest.approx(
            [2 * SETTLE, 4 * SETTLE, 8 * SETTLE, 16 * SETTLE])
        assert delays[-1] == delays[-2] == RETRY_CAP_S
        assert max(delays) == RETRY_CAP_S

    def test_rebase_confirms_the_epoch_at_the_resumed_count(self):
        reset = self.make()
        reset.next_epoch()
        reset.on_failure(quarantined=False)
        reset.rebase(120)
        assert reset.confirmed and reset.consecutive_failures == 0
        assert reset.last_emitter_count == 120

    @pytest.mark.parametrize("behind,restarted", [
        (0, False),
        (1, False),                   # reordering
        (4 * 16 - 1, False),          # restart_margin - 1
        (4 * 16, True),               # restart_margin
        (MODULUS // 2 - 1, True),
        (MODULUS // 2, False),        # that far "behind" is ahead
        (MODULUS - 3, False),         # three ahead
    ])
    def test_restart_band_edges(self, behind, restarted):
        reset = self.make()
        assert reset.restart_margin == 4 * 16
        assert not reset.restarted(5)  # nothing to regress from yet
        reset.on_decoded(1000)
        assert reset.restarted((1000 - behind) % self.MODULUS) is restarted

    def test_restart_band_across_the_counter_wrap(self):
        reset = self.make()
        reset.on_decoded(10)
        assert reset.restarted((10 - 64) % self.MODULUS)
        assert not reset.restarted((10 - 63) % self.MODULUS)

    def test_emitter_rule_stale_duplicate_new(self):
        assert epoch_verdict(current=2, announced=1) == "stale"
        assert epoch_verdict(current=2, announced=2) == "duplicate"
        assert epoch_verdict(current=2, announced=3) == "new"
        assert epoch_verdict(current=0, announced=5) == "new"
