"""Stateful property tests: quACK state machines vs simple models.

Hypothesis drives arbitrary interleavings of operations against a
reference model (plain Python multisets), checking after every step that
the production structures agree -- the strongest guard against subtle
state bugs in the cumulative accumulators.
"""

import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.chaos.adversary import ForgedPowerSumAdversary, LyingCountAdversary
from repro.quack import wire
from repro.quack.power_sum import BATCH_CROSSOVER, PENDING_CAP, PowerSumQuack
from repro.transport.ranges import RangeSet

THRESHOLDS = (1, 2, 3, 4, 5, 20)
WIDTHS = (16, 24, 32, 64)


def eager_fold(sums, identifier, modulus, sign=1):
    """The reference fold: every power and every sum reduced at once."""
    x = identifier % modulus
    power = x
    for i in range(len(sums)):
        sums[i] = (sums[i] + sign * power) % modulus
        power = power * x % modulus


def reference_quack(threshold, bits, sums, count, count_bits=16):
    """A quACK holding the reference's reduced sums and count."""
    quack = PowerSumQuack(threshold, bits, count_bits)
    quack._sums = list(sums)
    quack._count = count
    return quack


class PowerSumMachine(RuleBasedStateMachine):
    """Every fold path against :func:`eager_fold`, for each threshold and
    width: ``insert``, ``remove`` (of present and absent identifiers)
    and ``insert_many`` on both sides of ``BATCH_CROSSOVER``, with
    identifiers at and past ``p``.  ``read`` is checked after every
    step; ``unread`` folds the same and is checked only by its own rule,
    so its sums stay unreduced across many folds."""

    @initialize(threshold=st.sampled_from(THRESHOLDS),
                bits=st.sampled_from(WIDTHS))
    def setup(self, threshold, bits):
        self.threshold, self.bits = threshold, bits
        self.read = PowerSumQuack(threshold, bits)
        self.unread = PowerSumQuack(threshold, bits)
        self.modulus = self.read.field.modulus
        self.sums = [0] * threshold
        self.count = 0
        self.model: Counter = Counter()

    @property
    def quacks(self):
        return (self.read, self.unread)

    def draw_identifier(self, data):
        p = self.modulus
        return data.draw(st.one_of(
            st.integers(min_value=0, max_value=2 ** self.bits - 1),
            st.integers(min_value=p, max_value=2 ** self.bits - 1),
            st.sampled_from((0, p, p + 1, 2 * p, 2 ** self.bits - 1)),
            st.integers(min_value=2 ** self.bits, max_value=2 ** 72)))

    def fold(self, identifiers, sign=1):
        for identifier in identifiers:
            eager_fold(self.sums, identifier, self.modulus, sign)
            self.model[identifier] += sign
        self.count = (self.count + sign * len(identifiers)) % (1 << 16)

    @rule(data=st.data())
    def insert(self, data):
        identifier = self.draw_identifier(data)
        for quack in self.quacks:
            quack.insert(identifier)
        self.fold([identifier])

    @rule(data=st.data(), present=st.booleans())
    def remove(self, data, present):
        held = sorted(k for k, v in self.model.items() if v > 0)
        identifier = data.draw(st.sampled_from(held)) if present and held \
            else self.draw_identifier(data)
        for quack in self.quacks:
            quack.remove(identifier)
        self.fold([identifier], sign=-1)

    @rule(data=st.data(), many=st.booleans())
    def insert_many(self, data, many):
        size = data.draw(
            st.integers(BATCH_CROSSOVER, BATCH_CROSSOVER + 8) if many
            else st.integers(0, BATCH_CROSSOVER - 1))
        batch = [self.draw_identifier(data) for _ in range(size)]
        for quack in self.quacks:
            quack.insert_many(batch)
        self.fold(batch)

    def check(self, quack):
        """Each reader on its own copy (``copy`` keeps the sums as they
        are), so every one of them meets the unreduced state; then
        ``power_sums`` on the quACK itself."""
        reference = reference_quack(self.threshold, self.bits, self.sums,
                                    self.count)
        assert quack.count == self.count
        assert wire.encode(quack.copy()) == wire.encode(reference)
        assert quack.copy() == reference and reference == quack.copy()
        for delta in (quack.copy() - reference, reference - quack.copy(),
                      quack - quack.copy()):
            assert delta.count == 0
            assert delta.power_sums == (0,) * self.threshold
        assert quack.power_sums == tuple(self.sums)

    @invariant()
    def read_matches_the_reference(self):
        self.check(self.read)

    @rule()
    def read_the_unread(self):
        self.check(self.unread)

    @invariant()
    def reference_is_the_model(self):
        """The reference fold is the power sums of the model multiset
        (a negative multiplicity is an identifier removed while absent)."""
        sums = [0] * self.threshold
        for identifier, multiplicity in self.model.items():
            x = identifier % self.modulus
            for k in range(self.threshold):
                sums[k] += multiplicity * pow(x, k + 1, self.modulus)
        assert [s % self.modulus for s in sums] == self.sums


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("bits", WIDTHS)
def test_twenty_thousand_folds_without_a_read(threshold, bits):
    """20,000 folds between two reads: every path's unreduced sums read
    back as the reference's, on the wire as well as in ``power_sums``."""
    rng = random.Random(threshold * 100 + bits)
    quack = PowerSumQuack(threshold, bits)
    p = quack.field.modulus
    sums, count = [0] * threshold, 0
    identifiers = [rng.getrandbits(bits + 1) for _ in range(20_000)]
    for start in range(0, len(identifiers), 1000):
        chunk = identifiers[start:start + 1000]
        for identifier in chunk[:600]:
            quack.insert(identifier)
        for identifier in chunk[600:700]:
            quack.remove(identifier)
        quack.insert_many(chunk[700:705])
        quack.insert_many(chunk[705:])
        for index, identifier in enumerate(chunk):
            eager_fold(sums, identifier, p, -1 if 600 <= index < 700 else 1)
        count += len(chunk) - 200
    reference = reference_quack(threshold, bits, sums, count % (1 << 16))
    assert wire.encode(quack) == wire.encode(reference)
    assert quack.power_sums == tuple(sums)
    assert quack == reference


#: Run lengths of ``insert`` between reads: under, at and past the
#: eager-to-recording switch, and (from a read) up to and past the
#: record's cap.
RUNS = (1, 2, BATCH_CROSSOVER - 1, BATCH_CROSSOVER, BATCH_CROSSOVER + 1,
        BATCH_CROSSOVER + 40, BATCH_CROSSOVER + PENDING_CAP - 1,
        BATCH_CROSSOVER + PENDING_CAP + 3)


class FoldOnReadMachine(RuleBasedStateMachine):
    """``insert`` runs that stay eager, switch to recording or pass the
    record's cap, mixed with ``insert_many``, ``remove`` and every read,
    each read made on the quACK itself so that it meets the recorded
    batch, and the chaos adversaries' rewrites of ``_count`` and
    ``_sums`` (made after a read of their own).  Everything is checked
    against :func:`eager_fold`; with ``count_bits=9`` the count wraps.
    Edge identifiers (``p``, ``2**64``, ``-1``, ``2**80 + 5``) are
    folded in bulk as well as one by one."""

    @initialize(threshold=st.sampled_from(THRESHOLDS),
                bits=st.sampled_from((16, 32, 64)),
                count_bits=st.sampled_from((9, 16)))
    def setup(self, threshold, bits, count_bits):
        self.threshold, self.bits, self.count_bits = threshold, bits, count_bits
        self.quack = PowerSumQuack(threshold, bits, count_bits)
        self.modulus = self.quack.field.modulus
        self.sums = [0] * threshold
        self.count = 0
        self.held: list[int] = []

    def identifiers(self, size, seed):
        p = self.modulus
        edges = [p, p + 1, 2 ** 64, -1, 2 ** 80 + 5, 0, 2 ** self.bits - 1]
        rng = random.Random(seed)
        return [rng.choice(edges) if rng.random() < 0.1
                else rng.getrandbits(self.bits + 1) for _ in range(size)]

    def fold(self, identifiers, sign=1):
        for identifier in identifiers:
            eager_fold(self.sums, identifier, self.modulus, sign)
        self.count = (self.count + sign * len(identifiers)) \
            % (1 << self.count_bits)

    def reference(self):
        return reference_quack(self.threshold, self.bits, self.sums,
                               self.count, self.count_bits)

    @rule(size=st.sampled_from(RUNS), seed=st.integers(0, 2 ** 16))
    def insert_run(self, size, seed):
        batch = self.identifiers(size, seed)
        for identifier in batch:
            self.quack.insert(identifier)
        self.fold(batch)
        self.held.extend(batch[:3])

    @rule(size=st.sampled_from((0, 1, BATCH_CROSSOVER - 1, BATCH_CROSSOVER,
                                BATCH_CROSSOVER + 1, 300)),
          seed=st.integers(0, 2 ** 16))
    def insert_many(self, size, seed):
        batch = self.identifiers(size, seed)
        self.quack.insert_many(batch)
        self.fold(batch)

    @rule(seed=st.integers(0, 2 ** 16))
    def remove(self, seed):
        identifier = self.held.pop() if self.held and seed & 1 \
            else self.identifiers(1, seed)[0]
        self.quack.remove(identifier)
        self.fold([identifier], sign=-1)

    @rule(read=st.sampled_from(("power_sums", "count", "copy", "sub", "eq",
                                "encode", "repr")))
    def read(self, read):
        quack, reference = self.quack, self.reference()
        if read == "power_sums":
            assert quack.power_sums == tuple(self.sums)
        elif read == "count":
            assert quack.count == self.count
        elif read == "copy":
            clone = quack.copy()
            assert clone.power_sums == tuple(self.sums)
            assert clone.count == self.count
        elif read == "sub":
            for delta in (quack - reference, reference - quack):
                assert delta.count == 0
                assert delta.power_sums == (0,) * self.threshold
        elif read == "eq":
            assert quack == reference and reference == quack
        elif read == "encode":
            assert wire.encode(quack) == wire.encode(reference)
        else:
            assert repr(quack) == repr(reference)
        assert quack._pending is None       # every read folded the record

    @rule(inflation=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
          forge_sums=st.booleans())
    def adversary_rewrite(self, inflation, seed, forge_sums):
        """The adversaries rewrite ``_count``/``_sums`` of the quACK they
        were handed, after reading it; the frame is the rewritten one."""
        if forge_sums:
            frame = ForgedPowerSumAdversary(seed)._forged_frame(None,
                                                                self.quack)
            rng = random.Random(seed)
            self.sums = [(value + rng.randrange(1, self.modulus))
                         % self.modulus for value in self.sums]
        else:
            frame = LyingCountAdversary(inflation)._forged_frame(None,
                                                                 self.quack)
            self.count = (self.count + inflation) % (1 << self.count_bits)
        assert wire.decode(frame) == self.reference()

    @invariant()
    def the_record_stays_under_its_cap(self):
        pending = self.quack._pending
        assert pending is None or len(pending) < PENDING_CAP


def test_the_record_never_reaches_its_cap():
    """A quACK that is never read folds its record in place every
    ``PENDING_CAP`` identifiers, and reads back as the eager fold."""
    quack = PowerSumQuack(20, count_bits=9)
    rng = random.Random(7)
    ids = [rng.getrandbits(32) for _ in range(3 * PENDING_CAP + 5)]
    longest = 0
    for identifier in ids:
        quack.insert(identifier)
        longest = max(longest, len(quack._pending or ()))
    assert longest == PENDING_CAP - 1
    sums = [0] * 20
    for identifier in ids:
        eager_fold(sums, identifier, quack.field.modulus)
    assert quack == reference_quack(20, 32, sums, len(ids) % 512, 9)


class QuackSessionMachine(RuleBasedStateMachine):
    """A sender/receiver pair under arbitrary send/deliver/decode steps.

    Random packets are sent (into the sender quack + log) and a random
    subset delivered (into the receiver quack).  At any point, decoding
    sender-minus-receiver must recover exactly the undelivered multiset,
    whenever it fits the threshold.
    """

    THRESHOLD = 5

    def __init__(self):
        super().__init__()
        self.rng = random.Random(1234)
        self.sender = PowerSumQuack(self.THRESHOLD)
        self.receiver = PowerSumQuack(self.THRESHOLD)
        self.log: list[int] = []
        self.undelivered: list[int] = []

    @rule()
    def send_one(self):
        identifier = self.rng.getrandbits(32)
        self.sender.insert(identifier)
        self.log.append(identifier)
        self.undelivered.append(identifier)

    @rule()
    def deliver_one(self):
        if not self.undelivered:
            return
        index = self.rng.randrange(len(self.undelivered))
        identifier = self.undelivered.pop(index)
        self.receiver.insert(identifier)

    @rule()
    def retire_decoded_loss(self):
        """Model Section 3.3's threshold reset: give up on one
        undelivered packet, removing it everywhere."""
        if not self.undelivered:
            return
        index = self.rng.randrange(len(self.undelivered))
        identifier = self.undelivered.pop(index)
        self.sender.remove(identifier)
        self.log.remove(identifier)

    @invariant()
    def decode_recovers_undelivered(self):
        from repro.quack.decoder import decode_delta

        delta = self.sender - self.receiver
        assert delta.count == len(self.undelivered)
        if len(self.undelivered) > self.THRESHOLD:
            result = decode_delta(delta, self.log)
            assert not result.ok
            return
        result = decode_delta(delta, self.log)
        assert result.ok
        recovered = list(result.missing)
        for group, count in result.indeterminate:
            # Collisions: count unknowns; with 32-bit ids this is rare.
            recovered.extend([None] * count)
        assert len(recovered) == len(self.undelivered)
        if result.is_determinate:
            assert sorted(result.missing) == sorted(self.undelivered)


class RangeSetMachine(RuleBasedStateMachine):
    """RangeSet vs a plain set of integers."""

    def __init__(self):
        super().__init__()
        self.ranges = RangeSet()
        self.model: set[int] = set()

    @rule(lo=st.integers(min_value=0, max_value=300),
          width=st.integers(min_value=0, max_value=20))
    def add_range(self, lo, width):
        self.ranges.add_range(lo, lo + width)
        self.model.update(range(lo, lo + width + 1))

    @rule(value=st.integers(min_value=0, max_value=300))
    def add_value(self, value):
        self.ranges.add(value)
        self.model.add(value)

    @invariant()
    def cardinality_matches(self):
        assert len(self.ranges) == len(self.model)

    @invariant()
    def ranges_normalized(self):
        flat = self.ranges.ranges
        for (lo1, hi1), (lo2, hi2) in zip(flat, flat[1:]):
            assert hi1 + 1 < lo2  # sorted, disjoint, non-adjacent
        for lo, hi in flat:
            assert lo <= hi

    @invariant()
    def membership_sample_agrees(self):
        for probe in range(0, 330, 13):
            assert (probe in self.ranges) == (probe in self.model)


TestPowerSumMachine = PowerSumMachine.TestCase
TestPowerSumMachine.settings = settings(max_examples=60,
                                        stateful_step_count=30,
                                        deadline=None)

TestFoldOnReadMachine = FoldOnReadMachine.TestCase
TestFoldOnReadMachine.settings = settings(max_examples=40,
                                          stateful_step_count=20,
                                          deadline=None)

TestQuackSessionMachine = QuackSessionMachine.TestCase
TestQuackSessionMachine.settings = settings(max_examples=20,
                                            stateful_step_count=25,
                                            deadline=None)

TestRangeSetMachine = RangeSetMachine.TestCase
TestRangeSetMachine.settings = settings(max_examples=30,
                                        stateful_step_count=40,
                                        deadline=None)
