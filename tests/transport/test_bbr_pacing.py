"""Tests for BbrLite and paced sending (transport extensions)."""

import random

import pytest

from repro.netsim.core import Simulator
from repro.netsim.loss import BernoulliLoss
from repro.netsim.node import Host
from repro.netsim.topology import HopSpec, build_path
from repro.transport.cc.bbr import BbrLite
from repro.transport.cc.newreno import NewReno
from repro.transport.connection import ReceiverConnection, SenderConnection

BOTTLENECK_BPS = 20e6
BASE_RTT = 0.04


def run_transfer(cc, loss=0.0, total=1_500_000, pacing=True, seed=4,
                 queue_packets=64):
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    topology = build_path(
        sim, [server, client],
        [HopSpec(bandwidth_bps=BOTTLENECK_BPS, delay_s=BASE_RTT / 2,
                 loss_up=BernoulliLoss(loss, random.Random(seed)))])
    for link in topology.links_up + topology.links_down:
        link.queue_packets = queue_packets
    receiver = ReceiverConnection(sim, client, "server", total)
    sender = SenderConnection(sim, server, "client", total)
    sender.cc = cc
    sender.pacing = pacing
    sender.start()
    sim.run(until=120)
    return sender, receiver


class TestBbrModel:
    def test_converges_to_bottleneck_bandwidth(self):
        sender, receiver = run_transfer(BbrLite())
        assert receiver.complete
        bbr = sender.cc
        assert bbr.mode == "probe_bw"
        assert bbr.bottleneck_bandwidth_bps == \
            pytest.approx(BOTTLENECK_BPS, rel=0.15)

    def test_rtprop_tracks_base_rtt(self):
        sender, _ = run_transfer(BbrLite())
        # min RTT estimate close to propagation + 1 serialization.
        assert sender.cc.min_rtt_estimate == pytest.approx(BASE_RTT, rel=0.1)

    def test_good_utilization_on_clean_path(self):
        _, receiver = run_transfer(BbrLite())
        goodput = receiver.goodput_bps()
        assert goodput > 0.6 * BOTTLENECK_BPS

    def test_loss_agnostic_where_newreno_collapses(self):
        """The Section 2.1 motivation: a model-based controller on the
        lossy segment keeps the pipe full where AIMD cannot."""
        _, reno_receiver = run_transfer(NewReno(), loss=0.05)
        _, bbr_receiver = run_transfer(BbrLite(), loss=0.05)
        reno_goodput = reno_receiver.goodput_bps()
        bbr_goodput = bbr_receiver.goodput_bps()
        assert bbr_goodput > 4 * reno_goodput

    def test_startup_exits(self):
        sender, _ = run_transfer(BbrLite(), total=2_000_000)
        assert sender.cc.mode in ("probe_bw", "drain")

    def test_no_window_collapse_on_loss_events(self):
        cc = BbrLite()
        cc.cwnd = 100 * 1500
        cc.on_congestion_event(sent_time=0.5, now=1.0)
        assert cc.cwnd == 100 * 1500  # BBR ignores individual losses

    def test_pacing_gain_cycle(self):
        cc = BbrLite()
        cc._mode = "probe_bw"
        gains = set()
        for index in range(8):
            cc._cycle_index = index
            gains.add(cc.pacing_gain)
        assert gains == {1.25, 0.75, 1.0}

    def test_unprimed_pacing_rate_positive(self):
        cc = BbrLite()
        assert cc.pacing_rate_bps(0.05) > 0

    def test_repr(self):
        assert "mode=startup" in repr(BbrLite())


class TestPacing:
    def test_pacing_spreads_the_initial_window(self):
        """Without pacing the initial window leaves back-to-back; with
        pacing the packets are spaced out."""
        def first_burst(pacing):
            sim = Simulator()
            server, client = Host(sim, "server"), Host(sim, "client")
            build_path(sim, [server, client],
                       [HopSpec(bandwidth_bps=100e6, delay_s=0.05)])
            receiver = ReceiverConnection(sim, client, "server", 1_000_000)
            sender = SenderConnection(sim, server, "client", 1_000_000)
            sender.pacing = pacing
            times = []
            sender.add_send_listener(lambda rec: times.append(rec.time_sent))
            sender.start()
            sim.run(until=0.04)  # before the first ACK can arrive
            return times

        burst = first_burst(pacing=False)
        paced = first_burst(pacing=True)
        assert max(burst) - min(burst) == 0.0  # one instantaneous burst
        assert max(paced) - min(paced) > 0.005

    def test_bbr_avoids_bufferbloat(self):
        """On a deep queue, loss-based control fills the buffer (RTT
        inflates toward queue capacity); BBR paces at the bottleneck rate
        and keeps the smoothed RTT near the propagation floor."""
        reno, recv_reno = run_transfer(NewReno(), pacing=False,
                                       queue_packets=256, total=3_000_000)
        bbr, recv_bbr = run_transfer(BbrLite(), pacing=True,
                                     queue_packets=256, total=3_000_000)
        assert recv_reno.complete and recv_bbr.complete
        assert bbr.rtt.srtt < BASE_RTT * 1.5      # queue mostly empty
        assert reno.rtt.srtt > bbr.rtt.srtt       # AIMD stood in line

    def test_paced_transfer_completes_exactly(self):
        sender, receiver = run_transfer(NewReno(), total=777_777, pacing=True)
        assert receiver.complete
        assert receiver.stats.bytes_received == 777_777
