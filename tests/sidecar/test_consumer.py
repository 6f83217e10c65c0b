"""Tests for the sender-side sidecar session state (repro.sidecar.consumer).

The receiver side is simulated with a plain PowerSumQuack accumulating
the identifiers that "arrived"; the consumer under test decodes its
snapshots exactly as a sidecar would (paper, Sections 3.2-3.3).
"""

import pytest

from repro.quack.base import DecodeStatus
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import QuackConsumer

P32 = 4_294_967_291


def receiver(threshold=5):
    return PowerSumQuack(threshold)


def ids(*values):
    return list(values)


class TestBasicDecoding:
    def test_all_received(self):
        consumer = QuackConsumer(threshold=5)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102, 103)):
            consumer.record_send(identifier, f"pkt{i}", now=float(i))
            theirs.insert(identifier)
        feedback = consumer.on_quack(theirs, now=3.0)
        assert feedback.ok
        assert feedback.received == ["pkt0", "pkt1", "pkt2"]
        assert feedback.lost == [] and feedback.suspected == []
        assert consumer.outstanding == 0

    def test_middle_loss_declared_immediately_with_grace_one(self):
        consumer = QuackConsumer(threshold=5, grace=1)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102, 103)):
            consumer.record_send(identifier, i, now=float(i))
            if identifier != 102:
                theirs.insert(identifier)
        feedback = consumer.on_quack(theirs, now=3.0)
        assert feedback.ok
        assert feedback.lost == [1]
        assert feedback.received == [0, 2]
        assert feedback.num_missing == 1
        assert consumer.outstanding == 0
        assert consumer.stats.declared_lost == 1

    def test_grace_two_requires_two_strikes(self):
        consumer = QuackConsumer(threshold=5, grace=2)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102, 103)):
            consumer.record_send(identifier, i, now=float(i))
            if identifier != 102:
                theirs.insert(identifier)
        first = consumer.on_quack(theirs, now=3.0)
        assert first.suspected == [1] and first.lost == []
        assert consumer.outstanding == 1  # the suspect stays logged
        # Receiver gets more traffic; the suspect is still missing.
        consumer.record_send(104, 3, now=4.0)
        theirs.insert(104)
        second = consumer.on_quack(theirs, now=5.0)
        assert second.lost == [1]
        assert second.received == [3]
        assert consumer.outstanding == 0

    def test_empty_quack_and_log(self):
        consumer = QuackConsumer(threshold=5)
        feedback = consumer.on_quack(receiver(), now=0.0)
        assert feedback.ok
        assert feedback.received == [] and feedback.lost == []


class TestTrailingInTransit:
    def test_trailing_missing_treated_as_in_transit(self):
        consumer = QuackConsumer(threshold=5, grace=1)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102, 103, 104)):
            consumer.record_send(identifier, i, now=float(i))
        # Only the first two arrived; 103/104 are still flying.
        theirs.insert(101)
        theirs.insert(102)
        feedback = consumer.on_quack(theirs, now=4.0)
        assert feedback.ok
        assert feedback.lost == []
        assert feedback.in_transit == 2
        assert feedback.received == [0, 1]
        assert consumer.outstanding == 2

    def test_interior_loss_before_trailing_run_is_still_lost(self):
        consumer = QuackConsumer(threshold=5, grace=1)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102, 103, 104)):
            consumer.record_send(identifier, i, now=float(i))
        theirs.insert(101)
        theirs.insert(103)  # 102 lost; 104 in flight
        feedback = consumer.on_quack(theirs, now=4.0)
        assert feedback.lost == [1]
        assert feedback.in_transit == 1
        assert feedback.received == [0, 2]

    def test_trailing_rule_can_be_disabled(self):
        consumer = QuackConsumer(threshold=5, grace=1,
                                 trailing_in_transit=False)
        theirs = receiver()
        for i, identifier in enumerate(ids(101, 102)):
            consumer.record_send(identifier, i, now=float(i))
        theirs.insert(101)
        feedback = consumer.on_quack(theirs, now=2.0)
        assert feedback.lost == [1]
        assert feedback.in_transit == 0


class TestInFlightTruncation:
    def test_truncates_when_m_exceeds_threshold(self):
        """Section 3.3: with m > t, decode the log prefix and treat the
        newest (m - t) entries as in transit."""
        consumer = QuackConsumer(threshold=3, grace=1)
        theirs = receiver(threshold=3)
        identifiers = [1000 + i for i in range(10)]
        for i, identifier in enumerate(identifiers):
            consumer.record_send(identifier, i, now=float(i))
        # Receiver saw the first 4 packets except #2 (which is lost);
        # packets 4..9 are still in flight -> m = 7 > t = 3.
        for i in (0, 1, 3):
            theirs.insert(identifiers[i])
        feedback = consumer.on_quack(theirs, now=10.0)
        assert feedback.ok
        assert feedback.lost == [2]
        assert feedback.received == [0, 1, 3]
        # 4 truncated + any trailing remainder treated as in transit.
        assert feedback.in_transit >= 4
        assert consumer.outstanding == 6  # 4..9 still unresolved

    def test_everything_in_flight(self):
        consumer = QuackConsumer(threshold=2, grace=1)
        theirs = receiver(threshold=2)
        for i in range(8):
            consumer.record_send(2000 + i, i, now=float(i))
        feedback = consumer.on_quack(theirs, now=9.0)  # receiver saw nothing
        assert feedback.ok
        assert feedback.lost == [] and feedback.received == []
        assert feedback.in_transit == 8
        assert consumer.outstanding == 8


class TestCollisions:
    def test_partial_collision_group_reported_indeterminate(self):
        a, b = 4, P32 + 4  # distinct raw identifiers, same residue
        consumer = QuackConsumer(threshold=4, grace=1)
        theirs = receiver(threshold=4)
        consumer.record_send(a, "A", 0.0)
        consumer.record_send(b, "B", 1.0)
        consumer.record_send(77, "C", 2.0)
        theirs.insert(a)      # one of the colliding pair arrived
        theirs.insert(77)
        feedback = consumer.on_quack(theirs, now=3.0)
        assert feedback.ok
        assert set(feedback.indeterminate) == {"A", "B"}
        assert feedback.lost == []
        assert feedback.received == ["C"]
        # Ambiguous entries stay in the log (no strikes).
        assert consumer.outstanding == 2


class TestFailureModes:
    def test_receiver_ahead_of_log_is_inconsistent(self):
        consumer = QuackConsumer(threshold=4)
        theirs = receiver(threshold=4)
        theirs.insert(999)  # receiver saw something never logged
        feedback = consumer.on_quack(theirs, now=0.0)
        assert feedback.status is DecodeStatus.INCONSISTENT
        assert consumer.stats.quacks_failed == 1

    def test_false_loss_declaration_poisons_the_session(self):
        """Declaring a packet lost that later arrives makes subsequent
        decodes inconsistent -- the Section 3.3 reordering hazard."""
        consumer = QuackConsumer(threshold=4, grace=1,
                                 trailing_in_transit=False)
        theirs = receiver(threshold=4)
        consumer.record_send(111, "x", 0.0)
        consumer.on_quack(theirs.copy(), now=1.0)  # declared lost
        assert consumer.stats.declared_lost == 1
        theirs.insert(111)  # ... but it arrives after all
        consumer.record_send(222, "y", 2.0)
        theirs.insert(222)
        feedback = consumer.on_quack(theirs, now=3.0)
        assert feedback.status is DecodeStatus.INCONSISTENT

    def test_failed_decode_leaves_state_untouched(self):
        consumer = QuackConsumer(threshold=4)
        theirs = receiver(threshold=4)
        consumer.record_send(5, "m", 0.0)
        bogus = theirs.copy()
        bogus.insert(12345)
        before_log, before_count = list(consumer.log), consumer.sent_count
        feedback = consumer.on_quack(bogus, now=1.0)
        assert not feedback.ok
        assert consumer.log == before_log
        assert consumer.sent_count == before_count
        # ... and the session goes on as if the frame had never come.
        theirs.insert(5)
        assert consumer.on_quack(theirs, now=2.0).received == ["m"]

    def test_grace_validation(self):
        with pytest.raises(ValueError):
            QuackConsumer(threshold=4, grace=0)


class TestRecoveryFlows:
    def test_threshold_reset_after_losses(self):
        """Section 3.3 'Resetting the threshold': declared losses leave the
        sums, so the next quACK's threshold budget is fresh."""
        consumer = QuackConsumer(threshold=2, grace=1)
        theirs = receiver(threshold=2)
        batch1 = [10, 11, 12, 13]
        for i, identifier in enumerate(batch1):
            consumer.record_send(identifier, i, now=float(i))
        for identifier in (10, 13):
            theirs.insert(identifier)
        # 2 missing = t: decodes, both declared lost.
        feedback = consumer.on_quack(theirs, now=4.0)
        assert sorted(feedback.lost) == [1, 2]
        # Next round: 2 more losses; without the reset this would exceed t.
        batch2 = [20, 21, 22]
        for i, identifier in enumerate(batch2):
            consumer.record_send(identifier, 10 + i, now=5.0 + i)
        theirs.insert(21)
        feedback2 = consumer.on_quack(theirs, now=9.0)
        assert feedback2.ok
        # 20 (meta 10) is interior-missing -> lost; 22 (meta 12) trails ->
        # in transit under the trailing rule.
        assert feedback2.lost == [10]
        assert feedback2.in_transit == 1
        assert feedback2.received == [11]

    def test_dropped_quack_resilience(self):
        consumer = QuackConsumer(threshold=4, grace=1)
        theirs = receiver(threshold=4)
        for i in range(6):
            consumer.record_send(300 + i, i, now=float(i))
            theirs.insert(300 + i)
            if i == 2:
                _dropped = theirs.copy()  # this snapshot never arrives
        feedback = consumer.on_quack(theirs, now=6.0)
        assert feedback.ok
        assert feedback.received == list(range(6))

    def test_retransmission_relogs_same_identifier(self):
        consumer = QuackConsumer(threshold=4, grace=1)
        theirs = receiver(threshold=4)
        consumer.record_send(500, "orig", 0.0)
        consumer.record_send(501, "other", 0.5)
        theirs.insert(501)
        feedback = consumer.on_quack(theirs, now=1.0)
        assert feedback.lost == ["orig"]
        # Retransmit: same identifier goes back into the log and sums.
        consumer.record_send(500, "retx", 2.0)
        theirs.insert(500)  # this time it arrives
        feedback2 = consumer.on_quack(theirs, now=3.0)
        assert feedback2.ok
        assert feedback2.received == ["retx"]


class TestMaintenance:
    def test_expire_older_than(self):
        consumer = QuackConsumer(threshold=4)
        consumer.record_send(1, "old", now=0.0)
        consumer.record_send(2, "new", now=10.0)
        expired = consumer.expire_older_than(now=11.0, age=5.0)
        assert expired == ["old"]
        assert consumer.outstanding == 1
        # The expiry also removed the identifier from the sums: a quACK
        # covering only "new" must still decode.
        theirs = receiver(threshold=4)
        theirs.insert(2)
        assert consumer.on_quack(theirs, now=12.0).ok

    def test_evict_oldest(self):
        consumer = QuackConsumer(threshold=4)
        assert consumer.evict_oldest() is None
        consumer.record_send(1, "a", 0.0)
        consumer.record_send(2, "b", 1.0)
        assert consumer.evict_oldest() == "a"
        assert consumer.outstanding == 1

    def test_reset(self):
        consumer = QuackConsumer(threshold=4)
        consumer.record_send(1, "a", 0.0)
        consumer.reset()
        assert consumer.outstanding == 0
        assert consumer.sent_count == 0
        # Zero power sums: a receiver that saw nothing agrees with it.
        assert consumer.on_quack(receiver(threshold=4), now=1.0).ok

    def test_stats_accumulate(self):
        consumer = QuackConsumer(threshold=4, grace=1)
        theirs = receiver(threshold=4)
        consumer.record_send(7, "a", 0.0)
        theirs.insert(7)
        consumer.on_quack(theirs, 1.0)
        assert consumer.stats.sent_logged == 1
        assert consumer.stats.quacks_processed == 1
        assert consumer.stats.confirmed_received == 1
