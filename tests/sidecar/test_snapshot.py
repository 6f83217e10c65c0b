"""Checkpoint framing, the store, and post-resume gap reconciliation.

A checkpoint is the emitter's accumulator on stable storage: whatever
bytes come back at restore time must either reproduce the accumulator
exactly or raise WireFormatError -- a torn write or bit-rotted file
cold-starts the emitter, never restores garbage into the session.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import QuackConsumer
from repro.sidecar.snapshot import (
    CheckpointStore,
    EmitterCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
    restore_checkpoint,
    resume_verdict,
)


def make_checkpoint(flow_id: str = "flow0", epoch: int = 3,
                    taken_at: float = 1.25,
                    values: tuple = (11, 22, 33)) -> EmitterCheckpoint:
    from repro.quack import wire

    quack = PowerSumQuack(threshold=4)
    quack.insert_many(values)
    frame = wire.encode(quack, include_count=True, include_checksum=True)
    return EmitterCheckpoint(flow_id=flow_id, epoch=epoch,
                             taken_at=taken_at, frame=frame)


class TestRoundTrip:
    def test_checkpoint_round_trips(self):
        checkpoint = make_checkpoint()
        decoded = decode_checkpoint(encode_checkpoint(checkpoint))
        assert decoded == checkpoint

    def test_restored_accumulator_matches(self):
        checkpoint = make_checkpoint(values=(7, 8, 9, 10))
        restored = decode_checkpoint(encode_checkpoint(checkpoint)).quack()
        assert restored.count == 4
        original = PowerSumQuack(threshold=4)
        original.insert_many((7, 8, 9, 10))
        assert restored.power_sums == original.power_sums

    def test_unicode_flow_id(self):
        checkpoint = make_checkpoint(flow_id="flöw-0")
        assert decode_checkpoint(
            encode_checkpoint(checkpoint)).flow_id == "flöw-0"

    @given(flow_id=st.text(max_size=20),
           epoch=st.integers(min_value=0, max_value=2 ** 32 - 1),
           taken_at=st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
           values=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                           max_size=10))
    @settings(max_examples=100)
    def test_any_checkpoint_round_trips(self, flow_id, epoch, taken_at,
                                        values):
        from repro.quack import wire

        quack = PowerSumQuack(threshold=4)
        quack.insert_many(values)
        frame = wire.encode(quack, include_count=True, include_checksum=True)
        checkpoint = EmitterCheckpoint(flow_id=flow_id, epoch=epoch,
                                       taken_at=taken_at, frame=frame)
        decoded = decode_checkpoint(encode_checkpoint(checkpoint))
        assert decoded == checkpoint
        assert decoded.quack().count == len(values) % (1 << 16)


class TestVersionedCheckpoints:
    """Checkpoint v2: negotiated session state survives the restart."""

    def test_v2_round_trips_negotiated_state(self):
        checkpoint = make_checkpoint()
        negotiated = EmitterCheckpoint(
            flow_id=checkpoint.flow_id, epoch=checkpoint.epoch,
            taken_at=checkpoint.taken_at, frame=checkpoint.frame,
            wire_version=2, features=0x07)
        decoded = decode_checkpoint(encode_checkpoint(negotiated))
        assert decoded == negotiated
        assert decoded.wire_version == 2
        assert decoded.features == 0x07

    def test_v1_checkpoint_restores_an_unnegotiated_session(self):
        blob = encode_checkpoint(make_checkpoint(), version=1)
        decoded = decode_checkpoint(blob)
        assert decoded.wire_version == 1
        assert decoded.features == 0

    def test_encode_picks_the_version_automatically(self):
        plain = make_checkpoint()
        negotiated = EmitterCheckpoint(
            flow_id=plain.flow_id, epoch=plain.epoch,
            taken_at=plain.taken_at, frame=plain.frame,
            wire_version=2, features=0x07)
        assert encode_checkpoint(plain)[2] == 1
        assert encode_checkpoint(negotiated)[2] == 2

    def test_v2_costs_exactly_two_bytes(self):
        checkpoint = make_checkpoint()
        v1 = encode_checkpoint(checkpoint, version=1)
        v2 = encode_checkpoint(checkpoint, version=2)
        assert len(v2) == len(v1) + 2

    def test_v1_refuses_to_drop_negotiated_state(self):
        checkpoint = make_checkpoint()
        negotiated = EmitterCheckpoint(
            flow_id=checkpoint.flow_id, epoch=checkpoint.epoch,
            taken_at=checkpoint.taken_at, frame=checkpoint.frame,
            wire_version=2, features=0x07)
        with pytest.raises(WireFormatError, match="needs version >= 2"):
            encode_checkpoint(negotiated, version=1)

    def test_unsupported_version_names_format_and_range(self):
        with pytest.raises(WireFormatError,
                           match=r"checkpoint: unsupported version 7 "
                                 r"\(supported 1\.\.2\)"):
            encode_checkpoint(make_checkpoint(), version=7)

    def test_v2_restored_accumulator_matches(self):
        checkpoint = make_checkpoint(values=(5, 6, 7))
        negotiated = EmitterCheckpoint(
            flow_id=checkpoint.flow_id, epoch=checkpoint.epoch,
            taken_at=checkpoint.taken_at, frame=checkpoint.frame,
            wire_version=2, features=0x03)
        restored = decode_checkpoint(encode_checkpoint(negotiated)).quack()
        assert restored.count == 3

    def test_every_v2_truncation_and_bit_flip_fails(self):
        checkpoint = make_checkpoint()
        blob = encode_checkpoint(EmitterCheckpoint(
            flow_id=checkpoint.flow_id, epoch=checkpoint.epoch,
            taken_at=checkpoint.taken_at, frame=checkpoint.frame,
            wire_version=2, features=0x07))
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                decode_checkpoint(blob[:cut])
        for position in range(len(blob) * 8):
            mangled = bytearray(blob)
            mangled[position // 8] ^= 1 << (position % 8)
            with pytest.raises(WireFormatError):
                decode_checkpoint(bytes(mangled))


class TestMalformed:
    def test_every_truncation_fails(self):
        blob = encode_checkpoint(make_checkpoint())
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                decode_checkpoint(blob[:cut])

    def test_every_single_bit_flip_is_caught(self):
        blob = encode_checkpoint(make_checkpoint())
        for position in range(len(blob) * 8):
            mangled = bytearray(blob)
            mangled[position // 8] ^= 1 << (position % 8)
            with pytest.raises(WireFormatError):
                decode_checkpoint(bytes(mangled))

    def test_corrupt_inner_frame_fails_at_quack(self):
        checkpoint = make_checkpoint()
        bad = EmitterCheckpoint(
            flow_id=checkpoint.flow_id, epoch=checkpoint.epoch,
            taken_at=checkpoint.taken_at,
            frame=checkpoint.frame[:-1] + b"\x00")
        # The outer framing is re-CRC'd over the bad frame, so the outer
        # parse succeeds and the inner wire decode catches it.
        decoded = decode_checkpoint(encode_checkpoint(bad))
        with pytest.raises(WireFormatError):
            decoded.quack()

    @given(blob=st.binary(min_size=0, max_size=200))
    @settings(max_examples=150)
    def test_arbitrary_bytes_never_crash(self, blob):
        try:
            decoded = decode_checkpoint(blob)
        except WireFormatError:
            return
        assert isinstance(decoded, EmitterCheckpoint)


class TestCheckpointStore:
    def test_latest_wins(self):
        store = CheckpointStore()
        assert store.load() is None
        store.save(b"one")
        store.save(b"two")
        assert store.load() == b"two"
        assert store.writes == 2
        assert store.loads == 1

    def test_clear_models_a_lost_disk(self):
        store = CheckpointStore()
        store.save(b"data")
        store.clear()
        assert store.load() is None


class TestRestoreValidation:
    """What a restarting emitter may adopt; anything else cold-starts."""

    def test_a_good_checkpoint_restores_epoch_and_accumulator(self):
        checkpoint = make_checkpoint(epoch=3, values=(7, 8, 9))
        restored = restore_checkpoint(encode_checkpoint(checkpoint),
                                      "flow0", threshold=4)
        assert restored is not None
        assert restored[0].epoch == 3 and restored[1].count == 3

    def test_bit_rot_cold_starts(self):
        blob = bytearray(encode_checkpoint(make_checkpoint()))
        blob[9] ^= 0x40
        assert restore_checkpoint(bytes(blob), "flow0", threshold=4) is None

    def test_torn_write_cold_starts(self):
        blob = encode_checkpoint(make_checkpoint())
        assert restore_checkpoint(blob[:-7], "flow0", threshold=4) is None

    def test_another_flows_checkpoint_cold_starts(self):
        blob = encode_checkpoint(make_checkpoint(flow_id="flow9"))
        assert restore_checkpoint(blob, "flow0", threshold=4) is None

    def test_another_configurations_checkpoint_cold_starts(self):
        blob = encode_checkpoint(make_checkpoint())
        assert restore_checkpoint(blob, "flow0", threshold=8) is None


class TestResumeVerdict:
    """The consumer's answer to a restart announcement, as a function."""

    MODULUS = 1 << 16

    def verdict(self, epoch, count, current_epoch=2, sent_count=200):
        return resume_verdict(epoch, count, current_epoch, sent_count,
                              self.MODULUS)

    def test_current_epoch_at_or_behind_the_sent_log_is_plausible(self):
        assert self.verdict(2, 180) == "plausible"
        assert self.verdict(2, 200) == "plausible"

    def test_past_epoch_is_stale_whatever_it_counts(self):
        assert self.verdict(1, 180) == "stale"
        assert self.verdict(0, 900) == "stale"

    def test_future_epoch_is_implausible(self):
        assert self.verdict(3, 0) == "implausible"

    def test_count_ahead_of_the_sent_log_is_implausible(self):
        assert self.verdict(2, 201) == "implausible"

    def test_counts_compare_across_the_wrap(self):
        # The sent log wrapped to 3; 65534 is five behind it, not ahead.
        assert self.verdict(2, self.MODULUS - 2, sent_count=3) == "plausible"
        assert self.verdict(2, 4, sent_count=3) == "implausible"


class TestGapReconciliation:
    """The consumer's post-resume reconciliation of the checkpoint gap."""

    def run_confirmed(self, consumer: QuackConsumer,
                      emitter: PowerSumQuack, identifiers, now: float):
        for identifier in identifiers:
            consumer.record_send(identifier, meta=identifier, now=now)
            emitter.insert(identifier)
        return consumer.on_quack(emitter.copy(), now)

    def test_gap_identifiers_retire_without_loss_signals(self):
        consumer = QuackConsumer(threshold=8)
        emitter = PowerSumQuack(threshold=8)
        # Checkpoint taken here: the restored accumulator will hold 1..4.
        feedback = self.run_confirmed(consumer, emitter, (1, 2, 3, 4), 0.0)
        assert feedback.received == [1, 2, 3, 4]
        restored = emitter.copy()
        # Gap: 5 and 6 observed and *confirmed* after the checkpoint.
        feedback = self.run_confirmed(consumer, emitter, (5, 6), 0.1)
        assert feedback.received == [5, 6]
        # Crash + restore: the emitter continues from the stale state.
        emitter = restored
        consumer.arm_reconciliation()
        feedback = self.run_confirmed(consumer, emitter, (7, 8), 0.2)
        assert feedback.ok
        assert feedback.reconciled == 2  # 5 and 6 retired from the sums
        assert feedback.lost == []
        assert feedback.received == [7, 8]
        assert consumer.stats.gap_reconciled == 2
        assert consumer.stats.declared_lost == 0
        # States agree exactly again: the next decode is clean and empty.
        feedback = self.run_confirmed(consumer, emitter, (9,), 0.3)
        assert feedback.ok and feedback.reconciled == 0
        assert feedback.received == [9]

    def test_reconciliation_is_one_shot(self):
        consumer = QuackConsumer(threshold=8)
        emitter = PowerSumQuack(threshold=8)
        consumer.arm_reconciliation()
        feedback = self.run_confirmed(consumer, emitter, (1, 2), 0.0)
        assert feedback.ok and feedback.reconciled == 0
        assert not consumer._reconcile_pending

    def test_reset_clears_reconciliation_state(self):
        consumer = QuackConsumer(threshold=8)
        emitter = PowerSumQuack(threshold=8)
        self.run_confirmed(consumer, emitter, (1, 2), 0.0)
        consumer.arm_reconciliation()
        consumer.reset()
        assert not consumer._reconcile_pending
        assert not consumer._recent_confirmed

    def test_without_arming_a_gap_is_still_inconsistent(self):
        consumer = QuackConsumer(threshold=8)
        emitter = PowerSumQuack(threshold=8)
        self.run_confirmed(consumer, emitter, (1, 2, 3, 4), 0.0)
        restored = emitter.copy()
        self.run_confirmed(consumer, emitter, (5, 6), 0.1)
        emitter = restored  # crash without a resume handshake
        feedback = self.run_confirmed(consumer, emitter, (7,), 0.2)
        assert not feedback.ok  # the defense sees forged-looking evidence
