"""End-to-end tests of the three sidecar protocol scenarios (E7-E9).

These run the full stack -- simulator, paranoid transport, sidecar agents
-- on scaled-down transfers, asserting the *claims* the paper makes for
each protocol, with comfortable margins so seeds don't flake.
"""

import pytest

from repro.netsim.faults import Corruption
from repro.netsim.packet import PacketKind
from repro.netsim.topology import build_path
from repro.transport import connection
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.retransmission import run_retransmission

TOTAL = 400_000  # keep the in-test transfers quick


class TestCcDivision:
    @pytest.fixture(scope="class")
    def results(self):
        baseline = run_cc_division(total_bytes=TOTAL, sidecar=False, seed=3)
        sidecar = run_cc_division(total_bytes=TOTAL, sidecar=True, seed=3)
        return baseline, sidecar

    def test_both_complete(self, results):
        baseline, sidecar = results
        assert baseline.completed and sidecar.completed

    def test_sidecar_improves_completion_time(self, results):
        baseline, sidecar = results
        assert sidecar.completion_time < baseline.completion_time

    def test_sidecar_improves_goodput(self, results):
        baseline, sidecar = results
        assert sidecar.goodput_bps > baseline.goodput_bps

    def test_no_decode_failures(self, results):
        _, sidecar = results
        assert sidecar.server_sidecar_failures == 0
        assert sidecar.proxy_stats.decode_failures == 0

    def test_client_actually_quacked(self, results):
        _, sidecar = results
        assert sidecar.client_quacks > 0
        assert sidecar.proxy_stats.quacks_from_client > 0

    def test_proxy_took_custody_of_all_data(self, results):
        _, sidecar = results
        stats = sidecar.proxy_stats
        assert stats.taken_custody == stats.forwarded + stats.buffer_drops \
            + 0  # everything captured was eventually forwarded or dropped

    def test_baseline_has_no_sidecar_artifacts(self, results):
        baseline, _ = results
        assert baseline.client_quacks == 0
        assert baseline.proxy_stats is None


class TestAckReduction:
    @pytest.fixture(scope="class")
    def results(self):
        dense = run_ack_reduction(total_bytes=TOTAL, ack_every=2,
                                  sidecar=False, seed=5)
        sparse = run_ack_reduction(total_bytes=TOTAL, ack_every=32,
                                   sidecar=False, seed=5)
        assisted = run_ack_reduction(total_bytes=TOTAL, ack_every=32,
                                     sidecar=True, seed=5)
        return dense, sparse, assisted

    def test_all_complete(self, results):
        assert all(r.completed for r in results)

    def test_sparse_acks_cut_client_ack_count(self, results):
        dense, sparse, assisted = results
        assert sparse.client_acks_sent < dense.client_acks_sent / 4
        assert assisted.client_acks_sent < dense.client_acks_sent / 2

    def test_naive_thinning_hurts_but_sidecar_recovers(self, results):
        dense, sparse, assisted = results
        assert sparse.completion_time > dense.completion_time
        assert assisted.completion_time < sparse.completion_time

    def test_sidecar_quacks_flowed(self, results):
        _, _, assisted = results
        assert assisted.proxy_quacks_sent > 0
        assert assisted.server_sidecar_failures == 0

    def test_quack_bandwidth_is_modest(self, results):
        dense, _, assisted = results
        # 82 B per 2 x 1500 B data packets ~ 2.7% of the transfer -- and it
        # rides the proxy->server segment, not the client's uplink.
        assert assisted.quack_bytes < TOTAL * 0.03
        # The bytes on the *client uplink* (the constrained direction the
        # protocol is relieving) shrink substantially.
        assert assisted.client_ack_bytes < dense.client_ack_bytes / 2


class TestInNetworkRetransmission:
    @pytest.fixture(scope="class")
    def results(self):
        e2e = run_retransmission(total_bytes=TOTAL, innet_retx=False,
                                 loss_rate=0.05, seed=7)
        local = run_retransmission(total_bytes=TOTAL, innet_retx=True,
                                   loss_rate=0.05, seed=7)
        tolerant = run_retransmission(total_bytes=TOTAL, innet_retx=True,
                                      loss_rate=0.05, seed=7,
                                      reorder_threshold=64)
        return e2e, local, tolerant

    def test_all_complete(self, results):
        assert all(r.completed for r in results)

    def test_proxy_repairs_losses(self, results):
        _, local, tolerant = results
        assert local.proxy_retransmissions > 0
        assert tolerant.proxy_retransmissions > 0

    def test_local_repair_with_tolerant_host_beats_e2e(self, results):
        e2e, _, tolerant = results
        assert tolerant.completion_time < e2e.completion_time
        assert tolerant.server_congestion_events < e2e.server_congestion_events

    def test_tolerant_host_avoids_most_e2e_retransmissions(self, results):
        e2e, _, tolerant = results
        assert tolerant.server_retransmissions < e2e.server_retransmissions

    def test_no_decode_failures(self, results):
        _, local, tolerant = results
        assert local.proxy_decode_failures == 0
        assert tolerant.proxy_decode_failures == 0

    def test_quacks_flowed_and_adapted(self, results):
        _, local, _ = results
        assert local.proxy_quacks > 0


class TestPinnedOutcomes:
    """The simulator is seeded and event-ordered, so these virtual-time
    outcomes are machine-independent: any movement is a behaviour
    change, to be made on purpose and re-pinned."""

    TOTAL = 120_000

    def test_cc_division(self):
        result = run_cc_division(total_bytes=self.TOTAL, sidecar=True,
                                 seed=1)
        assert result.completion_time == pytest.approx(0.20103088,
                                                       rel=1e-12)

    def test_ack_reduction(self):
        result = run_ack_reduction(total_bytes=self.TOTAL, ack_every=32,
                                   sidecar=True, seed=1)
        assert result.client_acks_sent == 49
        assert result.completion_time == pytest.approx(0.25839312,
                                                       rel=1e-12)

    def test_retransmission(self):
        result = run_retransmission(total_bytes=self.TOTAL,
                                    innet_retx=True, seed=1)
        assert result.proxy_retransmissions == 6
        assert result.completion_time == pytest.approx(
            0.9683566601832443, rel=1e-12)


class TestProbeTimeoutOutlivesQuackRelease:
    """CC division: the proxy's quACK releases the server's window while
    the packets are still un-acked end to end.  On these seeds the
    retransmission of one of them is then lost on the access hop; with the
    probe timeout disarmed at ``bytes_in_flight == 0`` nothing ever fired
    again and the transfer hung (seeds 2 and 42 at 1.5 MB, 40 at 300 kB)."""

    @pytest.mark.parametrize("total_bytes", [300_000, 1_500_000])
    @pytest.mark.parametrize("seed", [2, 40, 42])
    def test_transfer_completes(self, seed, total_bytes):
        result = run_cc_division(sidecar=True, seed=seed,
                                 total_bytes=total_bytes)
        assert result.completed

    def test_lossy_ack_reduction_completes(self):
        # Same stall, other protocol: the one seed in 1..40 that hung.
        assert run_ack_reduction(sidecar=True, seed=38).completed


class TestCorruptQuackChannel:
    """A corrupt quACK costs one datagram of assistance, never the run.

    The scenarios build their links through ``Transfer``, so the injector
    goes in through the ``build_path`` name it calls: the lossy hop's
    reverse direction -- the one the proxy-bound quACKs travel -- gets a
    :class:`Corruption` restricted to ``PacketKind.QUACK``.  At 5% the
    gap a dropped snapshot leaves stays inside the threshold; at 10% and
    20% it does not, the session diverges, and the proxy's reset
    (:mod:`repro.sidecar.reset`) is what heals it.
    """

    @staticmethod
    def _corrupt_quacks_on_lossy_hop(monkeypatch, rate=0.05):
        injector = Corruption(rate, seed=5, kinds=[PacketKind.QUACK])

        def build(sim, nodes, hops):
            hops[1].faults_down = injector  # the lossy hop in both paths
            return build_path(sim, nodes, hops)

        monkeypatch.setattr(connection, "build_path", build)
        return injector

    @pytest.mark.parametrize("rate,seed", [
        (0.05, 3), (0.10, 1), (0.10, 2), (0.10, 3), (0.10, 4), (0.10, 5),
        (0.20, 3)])
    def test_cc_division_completes(self, monkeypatch, rate, seed):
        injector = self._corrupt_quacks_on_lossy_hop(monkeypatch, rate)
        result = run_cc_division(total_bytes=1_500_000, seed=seed)
        stats = result.proxy_stats
        assert result.completed
        # Counted, not crashed: every corrupt frame that reached the
        # decoder (one arriving while a reset settles is dropped unread).
        assert 0 < stats.wire_errors <= injector.stats.corrupted
        assert stats.decode_failures >= stats.wire_errors
        assert (stats.resets_initiated > 0) == (rate > 0.05)

    def test_retransmission_completes(self, monkeypatch):
        injector = self._corrupt_quacks_on_lossy_hop(monkeypatch)
        result = run_retransmission(total_bytes=TOTAL, seed=3)
        assert injector.stats.corrupted > 0
        assert result.completed
        assert result.proxy_decode_failures >= injector.stats.corrupted
