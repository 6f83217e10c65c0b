"""The decoder against its oracle, the candidates decode it replaced.

Root selection switches at :data:`repro.arith.roots.VECTOR_CROSSOVER`
log entries (numpy from there on, on a ``uint64`` field), so the log
lengths sit either side of it and far past it.  The logs carry repeated
identifiers and identifiers past the modulus that share a residue (so
indeterminate groups occur), 64-bit identifiers in both a 32-bit and a
64-bit field, and deltas corrupted by a wrapped count or by a root the
log does not hold.  Every :class:`DecodeResult` must be equal, with
plain ``int`` identifiers.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import field_for_bits
from repro.arith.roots import VECTOR_CROSSOVER
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack
from tests.quack.decode_oracle import reference_decode

LENGTHS = (1, 7, VECTOR_CROSSOVER - 1, VECTOR_CROSSOVER, 1000)


@st.composite
def cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from([32, 32, 64]))
    id_bits = draw(st.sampled_from(sorted({bits, 64})))
    threshold = draw(st.sampled_from([1, 5, 20]))
    n = draw(st.sampled_from(LENGTHS))
    p = field_for_bits(bits).modulus
    log = [rng.getrandbits(id_bits) for _ in range(n)]
    if draw(st.booleans()):          # repeated identifiers
        for index in rng.sample(range(n), n // 3):
            log[index] = rng.choice(log)
    clash = []
    if draw(st.booleans()):          # up to three identifiers, one residue
        residue = rng.randrange(p)
        clash = rng.sample(range(n), min(n, 3))
        for index in clash:
            log[index] = residue + p * rng.randrange(3)
    m = min(draw(st.sampled_from([0, 1, threshold])), n)
    rest = [index for index in range(n) if index not in clash]
    rng.shuffle(rest)
    lost = set((clash + rest)[:m])   # some or all of the clash, then others
    sender = PowerSumQuack(threshold, bits)
    receiver = PowerSumQuack(threshold, bits)
    sender.insert_many(log)
    receiver.insert_many([x for i, x in enumerate(log) if i not in lost])
    corruption = draw(st.sampled_from(
        [None, None, "wrapped count", "root absent"]))
    if corruption == "root absent":
        sender.insert(rng.getrandbits(id_bits))
    delta = sender - receiver
    if corruption == "wrapped count":
        # One more, two more, or one fewer (m = 0 wraps to the largest).
        delta._count = (delta._count + draw(st.sampled_from([1, 2, -1]))) \
            % 2**delta.count_bits
    method = draw(st.sampled_from(["candidates", "factor"]))
    return delta, log, method


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_decoder_matches_the_oracle(case):
    delta, log, method = case
    result = decode_delta(delta, log, method=method)
    assert result == reference_decode(delta, log, method=method)
    assert all(type(x) is int for x in result.missing)
    assert all(type(x) is int
               for group, _copies in result.indeterminate for x in group)
