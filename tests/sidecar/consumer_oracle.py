"""The sender-side quACK path done literally: the differential oracle.

``QuackConsumer`` keeps one accumulator, the power sums *below* a
boundary in its log, folds an identifier when a quACK moves the boundary
over it, and answers a quACK with ``m > t`` by a comparison before it
decodes.  :class:`ReferenceConsumer` is Section 3.2/3.3 with none of
that: a full ``mine`` folded at every send, every truncation rebuilt by
copying it and un-folding each identifier in flight, every quACK
decoded, expiry and eviction one entry at a time.  It shares the value
types (``LogEntry``, ``QuackFeedback``, ``ConsumerStats``) and nothing
else with the class it checks -- no method, no power-sum state -- so
whatever the two disagree on is a defect of the boundary bookkeeping or
of the shortcut.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any

from repro.quack.base import DecodeStatus
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import (
    DECODE_METHOD,
    ConsumerStats,
    LogEntry,
    QuackFeedback,
)


class ReferenceConsumer:
    """Every identifier folded at its send, every quACK decoded."""

    def __init__(self, threshold: int, bits: int = 32, grace: int = 1,
                 trailing_in_transit: bool = True) -> None:
        self.mine = PowerSumQuack(threshold, bits)
        self.threshold = threshold
        self.grace = grace
        self.trailing_in_transit = trailing_in_transit
        self.log: list[LogEntry] = []
        self.stats = ConsumerStats()
        self._recent_confirmed: deque[int] = deque(maxlen=4 * threshold)
        self._reconcile_pending = False

    def record_send(self, identifier: int, meta: Any, now: float) -> None:
        self.mine.insert(identifier)
        self.log.append(LogEntry(identifier, meta, now))
        self.stats.sent_logged += 1

    def _fail(self, status: DecodeStatus, **report) -> QuackFeedback:
        self.stats.quacks_failed += 1
        return QuackFeedback(status=status, **report)

    def on_quack(self, theirs: PowerSumQuack, now: float) -> QuackFeedback:
        self.stats.quacks_processed += 1
        mine = self.mine
        if (not isinstance(theirs, PowerSumQuack)
                or theirs.field != mine.field
                or theirs.threshold != mine.threshold
                or theirs.count_bits != mine.count_bits):
            return self._fail(DecodeStatus.INCONSISTENT)
        m_total = (mine.count - theirs.count) & ((1 << mine.count_bits) - 1)
        # After an accepted resume the checkpoint gap shows up as missing
        # identifiers that were already confirmed and retired.
        recent = list(self._recent_confirmed) if self._reconcile_pending \
            else []
        if m_total > len(self.log) + len(recent):
            return self._fail(DecodeStatus.INCONSISTENT, num_missing=m_total)

        # Section 3.3, "In-flight packets": the newest (m - t) unresolved
        # packets are in transit; un-fold them from a copy of the sums.
        in_transit = min(max(m_total - self.threshold, 0), len(self.log))
        kept = self.log[:len(self.log) - in_transit]
        truncated = mine.copy()
        for entry in self.log[len(kept):]:
            truncated.remove(entry.identifier)
        result = decode_delta(truncated - theirs,
                              [e.identifier for e in kept] + recent,
                              method=DECODE_METHOD)
        if not result.ok:
            return self._fail(result.status, num_missing=result.num_missing,
                              in_transit=in_transit)

        ambiguous_ids = {identifier for group_ids, _count
                         in result.indeterminate for identifier in group_ids}
        # The *latest* copies of an identifier absorb its missing marks.
        unassigned = Counter(result.missing)
        marks = [False] * len(kept)
        for index in reversed(range(len(kept))):
            if unassigned[kept[index].identifier] > 0:
                unassigned[kept[index].identifier] -= 1
                marks[index] = True

        reconciled = 0
        if self._reconcile_pending:
            # Missing with no log entry to absorb it: confirmed before
            # the crash, absent from the restored accumulator.
            for identifier in unassigned.elements():
                mine.remove(identifier)
                reconciled += 1
            self.stats.gap_reconciled += reconciled
            self._reconcile_pending = False

        feedback = QuackFeedback(status=DecodeStatus.OK,
                                 num_missing=result.num_missing,
                                 in_transit=in_transit,
                                 reconciled=reconciled)
        # A trailing continuous run of missing entries is in transit too.
        tail_start = len(kept)
        if self.trailing_in_transit:
            while tail_start > 0 and marks[tail_start - 1]:
                tail_start -= 1
            feedback.in_transit += len(kept) - tail_start

        survivors: list[LogEntry] = []
        for index, entry in enumerate(kept):
            if entry.identifier in ambiguous_ids:
                feedback.indeterminate.append(entry.meta)
                survivors.append(entry)
            elif not marks[index]:
                feedback.received.append(entry.meta)
                self._recent_confirmed.append(entry.identifier)
                self.stats.confirmed_received += 1
            elif index >= tail_start:
                survivors.append(entry)  # in transit: no strike
            else:
                entry.strikes += 1
                if entry.strikes >= self.grace:
                    feedback.lost.append(entry.meta)
                    mine.remove(entry.identifier)
                    self.stats.declared_lost += 1
                else:
                    feedback.suspected.append(entry.meta)
                    survivors.append(entry)
        self.log = survivors + self.log[len(kept):]
        return feedback

    def expire_older_than(self, now: float, age: float) -> list[Any]:
        cutoff = now - age
        expired: list[Any] = []
        survivors: list[LogEntry] = []
        for entry in self.log:
            if entry.sent_at < cutoff:
                expired.append(entry.meta)
                self.mine.remove(entry.identifier)
                self.stats.declared_lost += 1
            else:
                survivors.append(entry)
        self.log = survivors
        return expired

    def evict_oldest(self) -> Any | None:
        if not self.log:
            return None
        entry = self.log.pop(0)
        self.mine.remove(entry.identifier)
        self.stats.declared_lost += 1
        return entry.meta

    def arm_reconciliation(self) -> None:
        self._reconcile_pending = True

    def reset(self) -> None:
        self.mine = PowerSumQuack(self.threshold, self.mine.bits,
                                  self.mine.count_bits)
        self.log.clear()
        self._recent_confirmed.clear()
        self._reconcile_pending = False
