"""Capability negotiation: the algebra, the transcript, and the sessions.

Unit tests pin the pure negotiation layer (version selection, parameter
clamping, transcript hashing); the session tests drive the chaos
harness's canonical assisted transfer end to end and check the
acceptance criteria of the versioning milestone: a v2 consumer against
a v1 emitter negotiates down and completes, a mid-connection
VERSION-SWITCH upgrades the wire with zero resets and zero *added*
retransmissions, and a stripped or rewritten HELLO lands the channel in
QUARANTINED with goodput no worse than the unassisted baseline.
"""

import dataclasses

import pytest

from repro.chaos.harness import run_plan
from repro.sidecar.health import HealthState
from repro.sidecar.negotiate import (
    ALL_FEATURES,
    FEATURE_DEFENSE,
    FEATURE_RESUME,
    FEATURE_VERSION_SWITCH,
    Capabilities,
    Initiator,
    NegotiateConfig,
    Session,
    feature_names,
    hello_transcript,
    respond,
    select_version,
)
from repro.sidecar.defense import SignalKind
from repro.sidecar.protocol import HelloMessage, VersionSwitchMessage

SEED = 1


# -- the pure layer -----------------------------------------------------------

class TestSelectVersion:
    @pytest.mark.parametrize("offer,own,expected", [
        ((1, 2), (1, 2), 2),       # full overlap: highest mutual
        ((1, 2), (1, 1), 1),       # responder is legacy: negotiate down
        ((1, 3), (1, 2), 2),       # offer runs ahead: clamp to mutual
        ((2, 2), (1, 2), 2),       # initiator refuses v1
        ((1, 1), (2, 3), None),    # disjoint: no session
        ((3, 4), (1, 2), None),
    ])
    def test_highest_mutual(self, offer, own, expected):
        assert select_version(*offer, *own) == expected


class TestCapabilities:
    def test_empty_version_range_rejected(self):
        with pytest.raises(ValueError, match="version range"):
            Capabilities(min_version=2, max_version=1)

    def test_version_zero_rejected(self):
        with pytest.raises(ValueError, match="version range"):
            Capabilities(min_version=0, max_version=1)

    def test_hello_carries_session_parameters(self):
        hello = Capabilities().hello("flow0", threshold=24, bits=16)
        assert (hello.threshold, hello.bits) == (24, 16)
        assert (hello.min_version, hello.max_version) == (1, 2)
        assert hello.features == ALL_FEATURES

    def test_feature_names(self):
        assert feature_names(ALL_FEATURES) \
            == ["resume", "defense", "version-switch"]
        assert feature_names(FEATURE_DEFENSE) == ["defense"]
        assert feature_names(0) == []


class TestRespond:
    OFFER = HelloMessage(flow_id="flow0", min_version=1, max_version=2,
                         threshold=20, bits=32, interval_us=0,
                         features=ALL_FEATURES)

    def test_picks_highest_mutual_and_echoes_transcript(self):
        ack = respond(self.OFFER, Capabilities())
        assert ack.version == 2
        assert ack.transcript == hello_transcript(self.OFFER)

    def test_clamps_parameters_to_the_responder(self):
        ack = respond(self.OFFER, Capabilities(threshold=10, bits=16))
        assert (ack.threshold, ack.bits) == (10, 16)

    def test_intersects_features(self):
        ack = respond(self.OFFER, Capabilities(
            features=FEATURE_RESUME | FEATURE_DEFENSE))
        assert ack.features == FEATURE_RESUME | FEATURE_DEFENSE
        assert not ack.features & FEATURE_VERSION_SWITCH

    def test_no_overlap_stays_silent(self):
        assert respond(self.OFFER,
                       Capabilities(min_version=3, max_version=4)) is None

    def test_rewritten_offer_changes_the_transcript(self):
        # The downgrade defense in one assertion: any on-path edit of
        # the offer produces a different hash than the initiator holds.
        pinned = dataclasses.replace(self.OFFER, max_version=1, features=0)
        assert hello_transcript(pinned) != hello_transcript(self.OFFER)
        ack = respond(pinned, Capabilities())
        assert ack.version == 1
        assert ack.transcript != hello_transcript(self.OFFER)


class TestNegotiateConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="retry_s"):
            NegotiateConfig(retry_s=0)
        with pytest.raises(ValueError, match="strip_after"):
            NegotiateConfig(strip_after=0)
        with pytest.raises(ValueError, match="switch_grace_s"):
            NegotiateConfig(switch_grace_s=-0.1)


# -- the machines: no simulator, no node --------------------------------------

def switch_to(version, epoch=0):
    return VersionSwitchMessage(flow_id="flow0", version=version, epoch=epoch)


class TestSession:
    def test_unarmed_sessions_assist_at_once_under_v1(self):
        session = Session(armed=False)
        assert session.ready and session.version is None
        assert (session.wire_version, session.wire_features) == (1, 0)

    def test_armed_sessions_wait_for_the_agreement(self):
        session = Session(armed=True)
        assert not session.ready
        session.agree(2, ALL_FEATURES)
        assert session.ready and session.version == 2
        assert (session.wire_version, session.wire_features) == (1, 0)

    def test_switch_up_down_and_to_the_same_version(self):
        session = Session(armed=True)
        session.agree(2, ALL_FEATURES)
        session.switch(2)
        assert (session.wire_version, session.wire_features) \
            == (2, ALL_FEATURES)
        session.switch(2)
        assert (session.wire_version, session.wire_features) \
            == (2, ALL_FEATURES)
        session.switch(1)  # v1 frames have no feature byte
        assert (session.wire_version, session.wire_features) == (1, 0)

    def test_answer_opens_once_and_reacks_duplicates_identically(self):
        session = Session(armed=True)
        ack, opened = session.answer(TestRespond.OFFER, Capabilities())
        assert opened and session.ready and session.version == 2
        again, opened = session.answer(TestRespond.OFFER, Capabilities())
        assert not opened and again == ack

    def test_answer_stays_silent_without_overlap(self):
        session = Session(armed=True)
        ack, opened = session.answer(
            TestRespond.OFFER, Capabilities(min_version=3, max_version=4))
        assert ack is None and not opened and not session.ready

    def test_follow_switches_then_reads_the_repeat_as_a_duplicate(self):
        session = Session(armed=True)
        session.agree(2, ALL_FEATURES)
        assert session.follow(switch_to(2), epoch=0) == "switched"
        assert session.wire_version == 2
        assert session.follow(switch_to(2), epoch=0) == "duplicate"
        assert session.follow(switch_to(1), epoch=0) == "switched"
        assert (session.wire_version, session.wire_features) == (1, 0)

    def test_follow_refuses_stale_switches(self):
        session = Session(armed=True)
        assert session.follow(switch_to(1), epoch=0) == "stale"  # no session
        session.agree(1, ALL_FEATURES)
        assert session.follow(switch_to(2), epoch=0) == "stale"  # ceiling
        assert session.follow(switch_to(1, epoch=3), epoch=4) == "stale"
        unarmed = Session(armed=False)  # a legacy emitter stays at v1
        assert unarmed.follow(switch_to(2), epoch=0) == "stale"
        assert unarmed.follow(switch_to(1), epoch=0) == "duplicate"


class TestInitiator:
    def make(self, **config):
        return Initiator(NegotiateConfig(**config), Session(armed=True),
                         "flow0", threshold=20, bits=32)

    def good_ack(self, initiator, own=None):
        return respond(initiator.offer, own or Capabilities())

    def test_offer_carries_the_session_parameters(self):
        initiator = self.make()
        assert initiator.offer == TestRespond.OFFER
        assert initiator.transcript == hello_transcript(initiator.offer)

    def test_silence_is_loss_until_the_allowance_is_spent(self):
        initiator = self.make(strip_after=2)
        assert initiator.unanswered(1, now=0.15) is None
        signal = initiator.unanswered(2, now=0.3)
        assert signal.kind is SignalKind.DOWNGRADE
        assert (signal.observed, signal.expected) == (2, 2)
        assert initiator.unanswered(3, now=0.45) is not None

    def test_a_matching_echo_agrees_the_session(self):
        initiator = self.make()
        own = Capabilities(features=FEATURE_RESUME | FEATURE_VERSION_SWITCH)
        assert initiator.on_hello_ack(self.good_ack(initiator, own),
                                      now=0.02) is None
        session = initiator.session
        assert session.ready and session.version == 2
        assert session.features == FEATURE_RESUME | FEATURE_VERSION_SWITCH

    def test_a_rewritten_offer_or_forged_answer_is_a_downgrade(self):
        initiator = self.make()
        pinned = dataclasses.replace(initiator.offer, max_version=1)
        signal = initiator.on_hello_ack(respond(pinned, Capabilities()), 0.0)
        assert signal.kind is SignalKind.DOWNGRADE
        assert (signal.observed, signal.expected) == (1, 2)
        forged = dataclasses.replace(self.good_ack(initiator), version=3)
        assert initiator.on_hello_ack(forged, 0.0) is not None
        assert not initiator.session.ready

    def test_may_switch_needs_session_ceiling_and_feature(self):
        initiator = self.make()
        assert not initiator.may_switch(2)  # nothing agreed yet
        initiator.on_hello_ack(self.good_ack(initiator), 0.0)
        assert initiator.may_switch(2) and initiator.may_switch(1)
        assert not initiator.may_switch(3)
        plain = self.make()
        plain.on_hello_ack(self.good_ack(
            plain, Capabilities(features=FEATURE_RESUME)), 0.0)
        assert not plain.may_switch(2)

    def test_frame_gate_around_a_switch(self):
        initiator = self.make(switch_grace_s=0.1)
        initiator.on_hello_ack(self.good_ack(initiator), 0.0)
        assert initiator.frame_ok(1, now=0.1)
        assert not initiator.frame_ok(2, now=0.1)  # never switched to
        initiator.switch(2)
        assert initiator.session.wire_version == 2
        # Unconfirmed: old-version frames are simply valid, however late.
        assert initiator.frame_ok(1, now=5.0)
        assert initiator.frame_ok(2, now=5.2)      # the emitter flipped
        assert initiator.frame_ok(1, now=5.3)      # straggler, in grace
        assert not initiator.frame_ok(1, now=5.31)
        assert initiator.frame_ok(2, now=9.0)


# -- end-to-end sessions ------------------------------------------------------

@pytest.fixture(scope="module")
def plans():
    return {name: run_plan(name, seed=SEED)
            for name in ("negotiate-down", "version-skew", "version-switch",
                         "downgrade-strip", "downgrade-rewrite")}


class TestNegotiatedSessions:
    def test_all_plans_hold_their_invariants(self, plans):
        for name, result in plans.items():
            assert result.violations() == [], (name, result.violations())

    def test_v2_consumer_negotiates_down_to_a_v1_emitter(self, plans):
        result = plans["negotiate-down"]
        assert result.completed
        assert result.negotiated_version == 1
        assert result.server_counters["wire_version"] == 1
        assert result.emitter_counters["wire_version"] == 1
        assert result.server_counters["hellos_sent"] == 1
        assert result.emitter_counters["hello_acks_sent"] >= 1

    def test_version_skew_settles_on_the_highest_mutual(self, plans):
        result = plans["version-skew"]
        assert result.negotiated_version == 2
        assert result.completed

    def test_negotiation_precedes_assistance(self, plans):
        for name in ("negotiate-down", "version-skew", "version-switch"):
            result = plans[name]
            assert result.assistance_started_s is not None
            assert result.assistance_started_s > 0.0
            assert result.server_counters["hello_acks_received"] >= 1

    def test_handshake_is_one_offer_and_a_few_hundred_bytes(self, plans):
        result = plans["negotiate-down"]
        assert result.server_counters["hellos_sent"] == 1
        assert 0 < result.handshake_bytes < 512

    def test_version_skew_overhead_is_pinned(self, plans):
        # Deterministic virtual-time outcomes: any movement is a
        # behaviour change, to be made on purpose and re-pinned.
        result = plans["version-skew"]
        assert result.handshake_bytes == 143
        assert result.server_counters["hellos_sent"] == 1
        assert result.assistance_started_s == pytest.approx(0.0342288,
                                                            rel=1e-12)
        assert result.negotiated_version == 2


class TestVersionSwitch:
    def test_switch_lands_on_both_peers(self, plans):
        result = plans["version-switch"]
        assert result.negotiated_version == 2
        assert result.server_counters["wire_version"] == 2
        assert result.emitter_counters["wire_version"] == 2
        assert result.server_counters["version_switches"] == 1
        assert result.emitter_counters["version_switches"] == 1

    def test_zero_resets_and_zero_spurious_retransmissions(self, plans):
        # "Spurious" = a retransmission of a packet that was actually
        # delivered: every retransmission must be backed by a real drop
        # on the path, so the switch's state churn caused none.
        result = plans["version-switch"]
        assert result.completed
        assert result.server_counters["resets_initiated"] == 0
        assert result.emitter_counters["resets_applied"] == 0
        assert result.retransmitted_packets <= result.link_drops

    def test_in_flight_frames_survive_the_grace_window(self, plans):
        # Snapshots serialized under v1 that were in flight when the
        # switch landed are tolerated, not counted as stale.
        result = plans["version-switch"]
        assert result.server_counters["stale_version_frames"] == 0
        assert result.server_counters["decode_failures"] == 0

    def test_switch_cost_is_pinned(self, plans):
        result = plans["version-switch"]
        assert result.duration_s == pytest.approx(1.5, rel=1e-12)
        assert result.retransmitted_packets == 45


class TestDowngradeDefense:
    @pytest.mark.parametrize("name", ("downgrade-strip",
                                      "downgrade-rewrite"))
    def test_attack_is_quarantined(self, plans, name):
        result = plans[name]
        assert result.quarantined_at is not None
        assert result.health_final is HealthState.QUARANTINED
        assert result.signals_by_kind.get("downgrade", 0) >= 3

    @pytest.mark.parametrize("name", ("downgrade-strip",
                                      "downgrade-rewrite"))
    def test_goodput_never_drops_below_unassisted(self, plans, name):
        result = plans[name]
        assert result.completed
        assert result.duration_s <= (result.baseline_duration_s
                                     + result.baseline_slack_s + 1e-9)

    def test_strip_never_completes_negotiation(self, plans):
        result = plans["downgrade-strip"]
        assert result.negotiated_version is None
        assert result.assistance_started_s is None
        assert result.server_counters["hello_acks_received"] == 0

    def test_rewrite_is_caught_by_the_transcript(self, plans):
        result = plans["downgrade-rewrite"]
        assert result.server_counters["transcript_mismatches"] >= 1
        assert result.negotiated_version is None
