"""The in-transit tail against the truncation it replaced, and its cost.

``QuackConsumer`` keeps the power sums of the truncated log suffix
between quACKs (``_tail``).  The loop it replaced -- copy the cumulative
sums, un-fold every in-flight identifier -- lives on here as
``ReferenceConsumer`` and is the oracle: seeded random schedules drive
both and every observable must agree after every step.  The second half
pins what the tail is for: insert/remove work per quACK that does not
grow with the window.
"""

import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro import obs
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.consumer import QuackConsumer

P32 = 4_294_967_291
DUPLICATE = 0xD0D0_CAFE          # one identifier sent over and over
ALIASES = (7, P32 + 7)           # distinct identifiers, one residue


class ReferenceConsumer(QuackConsumer):
    """Section 3.3 truncation done literally, from ``mine``, per quACK."""

    def _truncated_mine(self, cut):
        truncated = self.mine.copy()
        for entry in self.log[cut:]:
            truncated.remove(entry.identifier)
        return truncated


class ProbedConsumer(QuackConsumer):
    """The production consumer, noting which way each quACK moved the tail."""

    def __init__(self, *args, moves, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves = moves

    def _truncated_mine(self, cut):
        self.moves["built" if self._tail is None
                   else "advanced" if cut > self._tail_lo
                   else "retreated" if cut < self._tail_lo
                   else "stayed"] += 1
        return super()._truncated_mine(cut)


def assert_tail_invariant(consumer):
    if consumer._tail is None:
        return
    lo, hi = consumer._tail_lo, consumer._tail_hi
    assert 0 <= lo <= hi <= len(consumer.log)
    expected = PowerSumQuack(consumer.threshold, consumer.mine.bits,
                             consumer.mine.count_bits)
    for entry in consumer.log[lo:hi]:
        expected.insert(entry.identifier)
    assert consumer._tail.power_sums == expected.power_sums
    assert consumer._tail.count == hi - lo


def assert_same_state(new, old):
    assert new.log == old.log
    assert new.mine == old.mine
    assert new.stats == old.stats
    assert new._recent_confirmed == old._recent_confirmed
    assert new._reconcile_pending == old._reconcile_pending
    assert_tail_invariant(new)


def run_schedule(seed, steps, moves, seen, *, threshold, window, **config):
    """One seeded run of a lossy, reordering segment with a restartable
    observer; returns nothing, asserts after every step."""
    rng = random.Random(seed)
    new = ProbedConsumer(threshold, moves=moves, **config)
    old = ReferenceConsumer(threshold, **config)
    theirs = PowerSumQuack(threshold)
    flying: list[int] = []          # sent, neither delivered nor dropped
    sent: list[int] = []            # identifier by meta (the send's serial)
    snapshots = [theirs.copy()]     # what the observer has emitted lately
    now, failures = 0.0, 0

    def both(method, *args):
        results = [getattr(consumer, method)(*args) for consumer in (new, old)]
        assert results[0] == results[1], method
        return results[0]

    def quack(snapshot):
        nonlocal failures
        truncations = sum(moves.values())
        feedback = both("on_quack", snapshot, now)
        truncated = sum(moves.values()) > truncations
        seen[feedback.status.value] += 1
        seen["truncated"] += truncated and feedback.ok
        seen["failed after truncation"] += truncated and not feedback.ok
        seen["reconciled"] += feedback.reconciled
        seen["indeterminate"] += bool(feedback.indeterminate)
        failures = 0 if feedback.ok else failures + 1

    def write_off(metas):
        # Given up on by the sender: keep the segment from delivering it
        # later, which would poison the session (Section 3.3).
        for meta in metas:
            if sent[meta] in flying:
                flying.remove(sent[meta])

    def restart():
        nonlocal theirs, failures
        both("reset")
        theirs = PowerSumQuack(threshold)
        flying.clear()
        snapshots[:] = [theirs.copy()]
        failures = 0

    operations = ("send", "deliver", "reorder", "lose", "quack", "stale",
                  "bogus", "mismatched", "evict", "expire", "reset", "resume")
    weights = (45, 20, 0.3, 4, 20, 2, 1, 0.5, 1, 1, 0.2, 1)
    for _ in range(steps):
        now += rng.random() * 0.01
        operation = rng.choices(operations, weights)[0]
        if operation == "send" and len(flying) < window:
            identifier = rng.choices(
                (rng.getrandbits(32), DUPLICATE, rng.choice(ALIASES)),
                (85, 10, 5))[0]
            both("record_send", identifier, len(sent), now)
            flying.append(identifier)
            sent.append(identifier)
        elif operation == "deliver":
            for identifier in flying[:rng.randint(1, 2)]:
                theirs.insert(identifier)
                flying.remove(identifier)
        elif operation == "reorder" and flying:
            theirs.insert(flying.pop(rng.randrange(min(len(flying), 4))))
        elif operation == "lose" and flying:
            flying.pop(rng.randrange(min(len(flying), 3)))
        elif operation == "quack":
            snapshots.append(theirs.copy())
            del snapshots[:-8]
            quack(snapshots[-1])
        elif operation == "stale":          # m > len(log), boundary retreats
            quack(rng.choice(snapshots))
        elif operation == "bogus":          # an identifier never sent
            forged = theirs.copy()
            forged.insert(rng.getrandbits(32))
            quack(forged)
        elif operation == "mismatched":
            quack(PowerSumQuack(threshold + 1))
        elif operation == "evict" and new.log:
            write_off([both("evict_oldest")])
        elif operation == "expire":
            write_off(both("expire_older_than", now,
                           rng.choice((0.02, 0.1, 1.0))))
        elif operation == "resume":
            # The observer restarts from an older checkpoint: what it saw
            # since is confirmed here and missing there (the gap).
            theirs = rng.choice(snapshots).copy()
            both("arm_reconciliation")
        if operation == "reset" or failures >= 3:
            restart()
        assert_same_state(new, old)


@pytest.mark.parametrize("config", [
    dict(threshold=4, window=3),
    dict(threshold=4, window=40),
    dict(threshold=4, window=40, grace=2),
    dict(threshold=6, window=30, trailing_in_transit=False),
    dict(threshold=20, window=220),
], ids=lambda config: ",".join(f"{k}={v}" for k, v in config.items()))
def test_tail_agrees_with_copy_and_remove(config):
    moves, seen = Counter(), Counter()
    for seed in range(6):
        run_schedule(seed, 1500, moves, seen, **config)
    assert seen["ok"] > 100 and seen["inconsistent"] > 0
    if config["window"] > config["threshold"]:
        # The schedules reach what the tail has to survive.
        for move in ("built", "advanced", "retreated"):
            assert moves[move] > 0, (move, moves)
        for event in ("truncated", "failed after truncation", "reconciled",
                      "indeterminate"):
            assert seen[event] > 0, (event, seen)


def test_tail_work_is_attributed_to_the_power_sum_update_span():
    consumer = QuackConsumer(threshold=2)
    for serial in range(6):
        consumer.record_send(1000 + serial, serial, now=0.0)
    obs.enable()
    try:
        feedback = consumer.on_quack(PowerSumQuack(2), now=1.0)
        spans = [stat for stat in obs.PROFILER.path_stats().values()
                 if stat.name == "quack.power_sum_update"]
        depth = obs.PROFILER.depth
    finally:
        obs.disable()
        obs.reset()
    assert feedback.ok and feedback.in_transit == 6
    assert sum(stat.calls for stat in spans) == 1 and depth == 0


# -- what the tail buys ------------------------------------------------------

#: run_ack_reduction(sidecar=True, ack_every=32, loss_rate=0.0) before
#: the tail existed; the change may not move any of it.
PINNED = {
    500_000: dict(completion_time=0.379753599999996, client_acks_sent=13,
                  proxy_quacks_sent=172, server_packets_sent=343,
                  server_retransmissions=0, server_sidecar_failures=0),
    1_500_000: dict(completion_time=0.7459520000000025, client_acks_sent=121,
                    proxy_quacks_sent=650, server_packets_sent=1299,
                    server_retransmissions=271, server_sidecar_failures=0),
}


@pytest.mark.parametrize("total_bytes", sorted(PINNED))
def test_power_sum_updates_per_quack_do_not_grow_with_the_window(
        monkeypatch, total_bytes):
    """Machine-independent gate: ``insert`` + ``remove`` calls made inside
    ``on_quack``, per quACK.  Copy-and-remove made 214 of them at 1.5 MB
    (one per packet in flight); the tail makes about 4 at any size."""
    work = Counter()
    on_quack = QuackConsumer.on_quack

    def counted_on_quack(self, theirs, now):
        work["quacks"] += 1
        work["inside"] += 1
        try:
            return on_quack(self, theirs, now)
        finally:
            work["inside"] -= 1

    def counting(update):
        def counted(self, identifier):
            work["updates"] += work["inside"]
            return update(self, identifier)
        return counted

    monkeypatch.setattr(QuackConsumer, "on_quack", counted_on_quack)
    monkeypatch.setattr(PowerSumQuack, "insert",
                        counting(PowerSumQuack.insert))
    monkeypatch.setattr(PowerSumQuack, "remove",
                        counting(PowerSumQuack.remove))
    result = asdict(run_ack_reduction(sidecar=True, ack_every=32,
                                      loss_rate=0.0,
                                      total_bytes=total_bytes))
    assert result["completed"]
    assert {key: result[key] for key in PINNED[total_bytes]} \
        == PINNED[total_bytes]
    assert work["quacks"] > 100
    assert work["updates"] / work["quacks"] <= 8
