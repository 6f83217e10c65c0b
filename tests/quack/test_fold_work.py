"""Call budget of the quACK fold: what cProfile counts stays put.

The benchmark's ``calls_per_op`` is cProfile's call count, builtins
included (``len``, ``isinstance``, ``list.append`` are calls; operators,
subscripts and type calls such as ``tuple(...)`` are not).  The fold on
read is built so that it moves that count only where it saves time:

* ``insert`` makes no call of its own, eager or recording;
* a read that finds fewer than ``BATCH_CROSSOVER`` identifiers unread
  makes the calls it made before identifiers could be recorded;
* a bulk fold makes a constant number of calls whatever ``n`` and ``t``.
"""

import cProfile
import random

import pytest

from repro.quack import wire
from repro.quack.power_sum import BATCH_CROSSOVER, PENDING_CAP, PowerSumQuack


def calls_in(action) -> int:
    """Calls cProfile counts while ``action()`` runs, the read itself
    included, ``action`` and the profiler's ``disable`` not."""
    profile = cProfile.Profile()
    profile.enable()
    action()
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) - 2


def identifiers(n, seed=1):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


@pytest.mark.parametrize("threshold", [1, 2, 20])
def test_insert_makes_no_call_on_either_path(threshold):
    """1,000 inserts after a read: ``BATCH_CROSSOVER`` eager folds,
    then records; the only calls are the inserts themselves."""
    quack = PowerSumQuack(threshold)
    ids = identifiers(1000)
    quack.power_sums

    def inserts():
        for identifier in ids:
            quack.insert(identifier)

    profile = cProfile.Profile()
    profile.enable()
    inserts()
    profile.disable()
    entries = {getattr(entry.code, "co_name", entry.code): entry
               for entry in profile.getstats()}
    assert entries["insert"].callcount == 1000
    assert entries["insert"].calls is None      # nothing called from inside
    assert sum(entry.callcount for entry in entries.values()) == 1000 + 2
    assert quack._pending is not None           # the recording path ran


#: A read's calls, the read included, when nothing is recorded: what each
#: made before ``insert`` could record.  The frame without a count now
#: reads the sums through ``power_sums`` (one call it did not make).
READ_CALLS = {"power_sums": 1, "count": 1, "copy": 1, "sub": 7, "eq": 4,
              "encode": 13, "encode without count": 10, "repr": 3}


def reads(quack, other):
    return {"power_sums": lambda: quack.power_sums,
            "count": lambda: quack.count,
            "copy": quack.copy,
            "sub": lambda: quack - other,
            "eq": lambda: quack == other,
            "encode": lambda: wire.encode(quack),
            "encode without count": lambda: wire.encode(
                quack, include_count=False),
            "repr": lambda: repr(quack)}


@pytest.mark.parametrize("unread", [0, 1, 3, BATCH_CROSSOVER - 1])
@pytest.mark.parametrize("read", sorted(READ_CALLS))
def test_a_read_with_few_unread_identifiers_adds_no_call(read, unread):
    reads(PowerSumQuack(20), PowerSumQuack(20))[read]()     # warm caches
    quack, other = PowerSumQuack(20), PowerSumQuack(20)
    ids = identifiers(unread)
    quack.count
    for identifier in ids:
        quack.insert(identifier)
    assert quack._pending is None
    assert calls_in(reads(quack, other)[read]) == READ_CALLS[read]
    for identifier in identifiers(BATCH_CROSSOVER - 1, seed=3):
        quack.insert(identifier)
    assert quack._pending is None   # the read restarted the eager run


def fold_calls(n, threshold, bits=32):
    """Calls of ``insert_many`` over ``n`` identifiers, and of the read
    that folds ``n`` recorded ones (beyond the same read with none)."""
    ids = identifiers(n)
    bulk = PowerSumQuack(threshold, bits)
    many = calls_in(lambda: bulk.insert_many(ids))
    recorded = PowerSumQuack(threshold, bits)
    for identifier in identifiers(BATCH_CROSSOVER, seed=2) + ids:
        recorded.insert(identifier)
    assert recorded._pending is not None and len(recorded._pending) == n
    read = calls_in(lambda: recorded.power_sums) - READ_CALLS["power_sums"]
    return many, read


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_a_bulk_fold_makes_a_constant_number_of_calls(bits):
    """Numpy from ``BATCH_CROSSOVER`` identifiers on (the scalar loop on
    a 64-bit field), the loop below it: either way the calls are the
    same at every size and threshold.  A fold is ``_fold`` and ``len``
    (``insert_many`` adds itself and an ``isinstance``); the loop adds
    an ``isinstance``, numpy ``batch_power_sums``, ``reduce_array``
    (``isinstance``, ``asarray``), ``np.empty``, one ``np.add.reduce``
    and ``tolist``."""
    sizes = (BATCH_CROSSOVER, 100, 1000, PENDING_CAP - 1)
    large = {fold_calls(n, t, bits) for n in sizes for t in (1, 2, 20, 50)}
    small = {fold_calls(n, t, bits)
             for n in (1, BATCH_CROSSOVER - 1) for t in (1, 2, 20, 50)}
    assert small == {(5, 3)}
    assert large == ({(5, 3)} if bits == 64 else {(11, 9)})
