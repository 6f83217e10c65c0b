"""The sender-side quACK path as it was: the differential oracle.

``QuackConsumer`` answers a quACK with ``m > t`` by a check before it
decodes (``_settle_in_order``), keeps the power sums of the in-transit
suffix between quACKs (``_tail``), and writes off expired and evicted
entries as a prefix.  The code those replaced lives on here, outside
``src/``, as :class:`ReferenceConsumer`: ``on_quack`` is the old one
verbatim, ``expire_older_than`` and ``evict_oldest`` are the old ones
less the line that dropped the tail (the reference never builds one),
and the truncation is Section 3.3 done literally -- copy the cumulative
sums, un-fold every identifier in flight.  Everything else is inherited,
so whatever the two classes disagree on is a defect of the shortcut or
of the bookkeeping.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.quack.base import DecodeStatus
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import (
    DECODE_METHOD,
    LogEntry,
    QuackConsumer,
    QuackFeedback,
)


class ReferenceConsumer(QuackConsumer):
    """Every quACK decoded, every truncation rebuilt from ``mine``."""

    def _truncated_mine(self, cut):
        truncated = self.mine.copy()
        for entry in self.log[cut:]:
            truncated.remove(entry.identifier)
        return truncated

    def on_quack(self, theirs: PowerSumQuack, now: float) -> QuackFeedback:
        """Process one received quACK; returns the decoded feedback.

        On a decode failure (threshold exceeded after truncation is
        impossible by construction, but inconsistent differences happen
        when a "lost" packet later arrived), no state is modified and the
        failure is reported in ``feedback.status``; the session owner
        decides whether to reset (Section 3.3: "the sender and receiver
        must reset the connection if they wish to use the quACK").
        """
        self.stats.quacks_processed += 1
        if (not isinstance(theirs, PowerSumQuack)
                or theirs.field != self.mine.field
                or theirs.threshold != self.mine.threshold
                or theirs.count_bits != self.mine.count_bits):
            # Parameter mismatch (e.g. a peer misconfigured after a
            # renegotiation): a protocol error to report, not a crash.
            self.stats.quacks_failed += 1
            self._trace_decode(now, DecodeStatus.INCONSISTENT, 0)
            return QuackFeedback(status=DecodeStatus.INCONSISTENT)
        m_total = (self.mine.count - theirs.count) \
            & ((1 << self.mine.count_bits) - 1)
        # After an accepted resume, decode against the log *plus* the
        # recently-confirmed ring: the checkpoint gap shows up as missing
        # identifiers that were already confirmed and retired.
        recent = list(self._recent_confirmed) if self._reconcile_pending \
            else []
        if m_total > len(self.log) + len(recent):
            self.stats.quacks_failed += 1
            self._trace_decode(now, DecodeStatus.INCONSISTENT, m_total)
            return QuackFeedback(status=DecodeStatus.INCONSISTENT,
                                 num_missing=m_total)

        kept = self.log
        truncated_mine = self.mine
        in_transit = 0
        if m_total > self.threshold:
            # Section 3.3, "In-flight packets": treat the newest
            # (m - t) unresolved packets as in transit and decode the rest.
            drop = min(m_total - self.threshold, len(self.log))
            kept = self.log[:len(self.log) - drop]
            truncated_mine = self._truncated_mine(len(kept))
            in_transit = drop

        delta = truncated_mine - theirs
        result = decode_delta(delta, [e.identifier for e in kept] + recent,
                              method=DECODE_METHOD)
        if not result.ok:
            self.stats.quacks_failed += 1
            self._trace_decode(now, result.status, result.num_missing)
            return QuackFeedback(status=result.status,
                                 num_missing=result.num_missing,
                                 in_transit=in_transit)

        missing = Counter(result.missing)
        ambiguous_ids = set()
        for group_ids, _count in result.indeterminate:
            ambiguous_ids.update(group_ids)

        # Assign missing marks to the *latest* entries per identifier (the
        # newest copies are likeliest to still be en route).
        marks = self._mark_entries(kept, missing)

        reconciled = 0
        if self._reconcile_pending:
            # Missing identifiers with no log entry to absorb them are
            # the checkpoint gap: confirmed delivered pre-crash, absent
            # from the restored accumulator.  Retire them from the sender
            # sums silently -- they are not losses.
            assigned = Counter(entry.identifier
                               for entry, mark in zip(kept, marks) if mark)
            for identifier in (missing - assigned).elements():
                self.mine.remove(identifier)
                reconciled += 1
            self.stats.gap_reconciled += reconciled
            self._reconcile_pending = False

        feedback = QuackFeedback(status=DecodeStatus.OK,
                                 num_missing=result.num_missing,
                                 in_transit=in_transit,
                                 reconciled=reconciled)
        # Trailing continuous run of missing entries is in transit.
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
            elif marks[index]:
                if index >= tail_start:
                    survivors.append(entry)  # in transit: no strike
                else:
                    entry.strikes += 1
                    if entry.strikes >= self.grace:
                        feedback.lost.append(entry.meta)
                        self.mine.remove(entry.identifier)
                        self.stats.declared_lost += 1
                    else:
                        feedback.suspected.append(entry.meta)
                        survivors.append(entry)
            else:
                feedback.received.append(entry.meta)
                self._recent_confirmed.append(entry.identifier)
                self.stats.confirmed_received += 1
        # The truncated suffix stays in the log untouched, and so do its
        # power sums: re-base them on the rebuilt log.
        if in_transit:
            self._tail_lo = len(survivors)
            self._tail_hi = len(survivors) + in_transit
        else:
            self._tail = None
        survivors.extend(self.log[len(kept):])
        self.log = survivors
        self._trace_decode(now, DecodeStatus.OK, result.num_missing,
                           declared_lost=len(feedback.lost),
                           in_transit=feedback.in_transit)
        return feedback

    def expire_older_than(self, now: float, age: float) -> list[Any]:
        """Give up on entries sent more than ``age`` seconds ago.

        Expired entries are removed from the log *and* the sender's power
        sums (like declared losses) and their metas returned.  This is a
        safety valve against trailing losses that the
        continuous-suffix-in-transit rule would otherwise keep "in
        transit" forever.  ``age`` must comfortably exceed the worst-case
        delivery time of the observed segment: expiring a packet that
        later arrives desynchronizes the cumulative power sums for the
        rest of the session (the reordering hazard of Section 3.3).
        """
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
        """Write off the single oldest unresolved entry (buffer bound).

        Same power-sum bookkeeping (and the same reordering hazard) as
        :meth:`expire_older_than`; returns the evicted meta, or None when
        the log is empty.
        """
        if not self.log:
            return None
        entry = self.log.pop(0)
        self.mine.remove(entry.identifier)
        self.stats.declared_lost += 1
        return entry.meta
