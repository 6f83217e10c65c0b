"""The sender-side quACK path against Section 3.3 done literally, and
its cost.

``QuackConsumer`` keeps the power sums below a boundary in its log
(``_head``), folds an identifier when a quACK moves the boundary over it
(``_head_at``) and, when a quACK reports more than ``t`` packets
outstanding, first checks whether they are simply the newest ones
(``_settle_in_order``).  The literal version -- fold at every send, copy
the cumulative sums, un-fold every in-flight identifier, decode every
time -- is ``ReferenceConsumer`` in ``consumer_oracle.py``, a class of
its own, and is the oracle: seeded random schedules drive both and every
observable must agree after every step.  The second half pins what the
bookkeeping is for: one fold per packet sent, work per quACK that does
not grow with the window, and no decode for a quACK that reports no
loss.
"""

import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro import obs
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar import consumer as consumer_module
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.agents import DEFAULT_THRESHOLD
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.consumer import QuackConsumer
from tests.sidecar.consumer_oracle import ReferenceConsumer

P32 = 4_294_967_291
DUPLICATE = 0xD0D0_CAFE          # one identifier sent over and over
ALIASES = (7, P32 + 7)           # distinct identifiers, one residue


class ProbedConsumer(QuackConsumer):
    """The production consumer, noting which way each quACK moved the
    boundary and what became of the in-order check."""

    def __init__(self, *args, moves, seen, **kwargs):
        super().__init__(*args, **kwargs)
        self.moves, self.seen = moves, seen

    def _head_at(self, cut):
        self.moves["advanced" if cut > self._boundary
                   else "retreated" if cut < self._boundary
                   else "stayed"] += 1
        self.seen["set aside"] += cut < len(self.log)
        return super()._head_at(cut)

    def _settle_in_order(self, theirs, m_total, now):
        feedback = super()._settle_in_order(theirs, m_total, now)
        self.seen["settled" if feedback else "fell through"] += 1
        return feedback


def assert_same_state(new, old):
    assert new.log == old.log
    assert new._aliased == sum(entry.identifier >= P32 for entry in new.log)
    assert new.sent_count == old.mine.count
    # The head is everything sent and not written off (the oracle's
    # ``mine``) less what lies from the boundary on, count included.
    assert 0 <= new._boundary <= len(new.log)
    below = old.mine.copy()
    for entry in new.log[new._boundary:]:
        below.remove(entry.identifier)
    assert new._head == below
    # The oracle never settles a quACK without decoding it.
    assert {**asdict(new.stats), "settled_in_order": 0} == asdict(old.stats)
    assert new._recent_confirmed == old._recent_confirmed
    assert new._reconcile_pending == old._reconcile_pending


def run_schedule(seed, steps, moves, seen, *, threshold, window, **config):
    """One seeded run of a lossy, reordering segment with a restartable
    observer; returns nothing, asserts after every step."""
    rng = random.Random(seed)
    new = ProbedConsumer(threshold, moves=moves, seen=seen, **config)
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
        checks = seen["settled"] + seen["fell through"]
        truncations = seen["set aside"]
        asides = {"aside: reconciling": new._reconcile_pending,
                  "aside: aliased": new._aliased > 0}
        feedback = both("on_quack", snapshot, now)
        truncated = seen["set aside"] > truncations
        if seen["settled"] + seen["fell through"] > checks:
            assert truncated and not any(asides.values())
        elif truncated:
            assert any(asides.values())
            seen.update(reason for reason, held in asides.items() if held)
        seen[feedback.status.value] += 1
        seen["truncated"] += truncated and feedback.ok
        seen["failed after truncation"] += truncated and not feedback.ok
        seen["reconciled"] += feedback.reconciled
        seen["indeterminate"] += bool(feedback.indeterminate)
        failures = 0 if feedback.ok else failures + 1

    def write_off(method, *args):
        # Given up on by the sender: keep the segment from delivering it
        # later, which would poison the session (Section 3.3).
        where = "below the boundary" if new._boundary else "past the boundary"
        metas = both(method, *args)
        if method == "evict_oldest":
            metas = [metas]
        seen[f"{method} {where}"] += bool(metas)
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
    for step in range(steps):
        now += rng.random() * 0.01
        operation = rng.choices(operations, weights)[0]
        if operation == "send" and len(flying) < window:
            # Aliases come in spells, so the log also gets to be free of
            # them and to lose its last one each way an entry can leave.
            identifier = rng.choices(
                (rng.getrandbits(32), DUPLICATE, rng.choice(ALIASES)),
                (85, 10, 5 * (step // 250 % 3 == 1)))[0]
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
            write_off("evict_oldest")
        elif operation == "expire":
            write_off("expire_older_than", now, rng.choice((0.02, 0.1, 1.0)))
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
    dict(threshold=6, window=30, grace=3),
    dict(threshold=20, window=220),
], ids=lambda config: ",".join(f"{k}={v}" for k, v in config.items()))
def test_tail_agrees_with_copy_and_remove(config):
    moves, seen = Counter(), Counter()
    for seed in range(6):
        run_schedule(seed, 1500, moves, seen, **config)
    assert seen["ok"] > 100 and seen["inconsistent"] > 0
    if config["window"] > config["threshold"]:
        # The schedules reach what the boundary has to survive ...
        for move in ("advanced", "retreated", "stayed"):
            assert moves[move] > 0, (move, moves)
        events = ["truncated", "failed after truncation", "reconciled",
                  "indeterminate"]
        # ... a prefix written off on either side of it, both answers
        # of the in-order check, and each reason it has for not being
        # asked.
        events += [f"{method} {where} the boundary"
                   for method in ("evict_oldest", "expire_older_than")
                   for where in ("below", "past")]
        events += ["settled", "fell through", "aside: reconciling",
                   "aside: aliased"]
        for event in events:
            assert seen[event] > 0, (event, seen)


def test_boundary_move_is_attributed_to_the_power_sum_update_span():
    """Timed by the layer recorder: the accumulator's power-sum updates
    (``quack.insert_many`` / ``quack.remove``) run under the quACK
    handler when the boundary moves, never under a send, and not at all
    when the boundary stays."""
    def updates(under):
        return sum(calls for path, (calls, _cum, _self)
                   in obs.PROFILER.path_times().items()
                   if path[-1] in ("quack.insert_many", "quack.remove")
                   and under in path)

    consumer = QuackConsumer(threshold=2)
    theirs = PowerSumQuack(2)
    theirs.insert_many([1000, 1001])
    obs.PROFILER.install()
    try:
        for serial in range(6):
            consumer.record_send(1000 + serial, serial, now=0.0)
        sends = obs.PROFILER.layer_times()[1]["sidecar.consumer_record_send"]
        while_sending = updates("sidecar.consumer_record_send")
        feedback = consumer.on_quack(theirs, now=1.0)
        moved = updates("sidecar.consumer_on_quack")
        consumer.on_quack(theirs, now=2.0)     # the boundary stays put
        stayed = updates("sidecar.consumer_on_quack") - moved
    finally:
        obs.disable()
        obs.reset()
    assert feedback.ok and feedback.received == [0, 1]
    assert feedback.in_transit == 4
    assert (sends, while_sending, moved, stayed) == (6, 0, 1, 0)


# -- what the bookkeeping buys --------------------------------------------------

#: run_ack_reduction(sidecar=True, ack_every=32, loss_rate=0.0) before
#: the tail existed; no change since may move any of it.
PINNED = {
    500_000: dict(completion_time=0.379753599999996, client_acks_sent=13,
                  proxy_quacks_sent=172, server_packets_sent=343,
                  server_retransmissions=0, server_sidecar_failures=0),
    1_500_000: dict(completion_time=0.7459520000000025, client_acks_sent=121,
                    proxy_quacks_sent=650, server_packets_sent=1299,
                    server_retransmissions=271, server_sidecar_failures=0),
    4_500_000: dict(completion_time=1.6948256000000794, client_acks_sent=1866,
                    proxy_quacks_sent=3382, server_packets_sent=7734,
                    server_retransmissions=4651, server_sidecar_failures=0),
}


@pytest.fixture
def work(monkeypatch):
    """Counts over every ``QuackConsumer`` of the process, start to
    finish: power-sum ``updates`` (identifiers folded into or out of a
    consumer's head, wherever from), how many of them ``while sending``
    (inside ``record_send``), packets ``sent``, ``decodes`` asked for,
    and how many quACKs were ``truncating`` (reported more than ``t``
    outstanding), ``reopened`` (the first such after one that did not)
    or ``bad news`` (a loss, a suspicion or a decode failure)."""
    work = Counter()
    consumers = {}      # -> its last quACK had at most t outstanding
    originals = {name: getattr(QuackConsumer, name)
                 for name in ("__init__", "record_send", "on_quack")}

    def counted_init(self, *args, **kwargs):
        originals["__init__"](self, *args, **kwargs)
        consumers[self] = False

    def counted_record_send(self, identifier, meta, now):
        work["sent"] += 1
        work["sending"] += 1
        try:
            originals["record_send"](self, identifier, meta, now)
        finally:
            work["sending"] -= 1

    def counted_on_quack(self, theirs, now):
        outstanding = (self.sent_count - theirs.count) \
            & ((1 << self.count_bits) - 1)
        work["quacks"] += 1
        work["truncating"] += outstanding > self.threshold
        work["reopened"] += consumers[self] and outstanding > self.threshold
        consumers[self] = outstanding <= self.threshold
        feedback = originals["on_quack"](self, theirs, now)
        work["bad news"] += bool(feedback.lost or feedback.suspected
                                 or not feedback.ok)
        return feedback

    def counting_updates(function, many=False):
        def counted(quack, argument):
            if any(quack is consumer._head for consumer in consumers):
                if many:    # every identifier, on either side of the crossover
                    argument = list(argument)
                    folded = len(argument)
                else:
                    folded = 1
                work["updates"] += folded
                work["while sending"] += folded * work["sending"]
            return function(quack, argument)
        return counted

    monkeypatch.setattr(QuackConsumer, "__init__", counted_init)
    monkeypatch.setattr(QuackConsumer, "record_send", counted_record_send)
    monkeypatch.setattr(QuackConsumer, "on_quack", counted_on_quack)
    monkeypatch.setattr(PowerSumQuack, "insert",
                        counting_updates(PowerSumQuack.insert))
    monkeypatch.setattr(PowerSumQuack, "remove",
                        counting_updates(PowerSumQuack.remove))
    monkeypatch.setattr(PowerSumQuack, "insert_many",
                        counting_updates(PowerSumQuack.insert_many, many=True))

    def counted_decode(*args, **kwargs):
        work["decodes"] += 1
        return decode_delta(*args, **kwargs)

    decode_delta = consumer_module.decode_delta
    monkeypatch.setattr(consumer_module, "decode_delta", counted_decode)
    return work


def assert_one_fold_per_packet(work):
    """No power sum moves at a send, and over the run a consumer folds
    each packet once: only a quACK with bad news, or the first one to
    report more than ``t`` outstanding after one that did not, finds the
    boundary up to ``t`` entries past its cut and moves it back and
    forth again."""
    assert work["while sending"] == 0
    assert work["updates"] <= work["sent"] + 2 * DEFAULT_THRESHOLD * (
        work["bad news"] + work["reopened"])


@pytest.mark.parametrize("total_bytes", sorted(PINNED))
def test_power_sum_updates_per_quack_do_not_grow_with_the_window(
        work, total_bytes):
    """Machine-independent gate.  Copy-and-remove made 214 power-sum
    updates per quACK at 1.5 MB (one per packet in flight); two
    accumulators made three per packet sent.  The head makes one per
    packet the boundary passes, at the quACK that moves it, none at the
    send, and a quACK with bad news moves it by ``t`` for the decode and
    back for the next check.  ``loss_rate=0`` keeps the links from
    dropping, not the proxy's queue: the 4.5 MB window overruns it (970
    losses over 488 quACKs), the smaller ones never do, and there only
    the quACKs reporting at most ``t`` outstanding are decoded."""
    result = asdict(run_ack_reduction(sidecar=True, ack_every=32,
                                      loss_rate=0.0,
                                      total_bytes=total_bytes))
    assert result["completed"]
    assert {key: result[key] for key in PINNED[total_bytes]} \
        == PINNED[total_bytes]
    assert work["quacks"] > 100
    assert work["truncating"] > work["quacks"] / 2
    assert (work["bad news"] == 0) == (total_bytes < 4_500_000)
    assert work["decodes"] \
        <= work["bad news"] + work["quacks"] - work["truncating"]
    assert_one_fold_per_packet(work)


def test_only_bad_news_is_decoded_on_a_lossy_segment(work):
    """Both consumers of a cc-division run (the server's and the pacing
    proxy's) over a 2% lossy access hop: a quACK that reports more than
    ``t`` outstanding reaches the decoder only if it has a loss or a
    suspicion to report."""
    result = run_cc_division(sidecar=True, loss_rate=0.02, seed=1)
    assert result.completed
    assert work["quacks"] > 300 and work["bad news"] > 20
    assert 100 < work["truncating"] < work["quacks"]
    assert work["decodes"] \
        <= work["bad news"] + work["quacks"] - work["truncating"]
    assert_one_fold_per_packet(work)
