"""Sender-side sidecar state: the log, decoding, and loss declaration.

This runs wherever packets *leave* toward the quACKing observer -- the
server host (Sections 2.1, 2.2) or the sender-side proxy (Section 2.3).
It keeps the paper's Section 3.2 sender state: a cumulative power-sum
quACK over everything sent, a log of unresolved packets, and a count --
and implements the Section 3.3 practical refinements:

* **Resetting the threshold** -- packets decoded as lost are removed from
  the log *and* the sender's power sums, so they do not eat into the
  threshold of the next quACK.
* **Re-ordered packets** -- a missing packet is only *declared* lost after
  it has been reported missing by ``grace`` consecutive quACK decodes
  (grace=1 declares immediately); until then it is merely "suspected".
* **In-flight packets** -- when the count difference ``m`` exceeds the
  threshold ``t``, the log suffix is truncated so exactly ``t`` packets
  can be missing, "considering the truncated packets to be in transit";
  and "any continuous suffix of missing packets" in the decoded log is
  also treated as in transit rather than missing.  So the power sums
  kept here (``_head``) are the ones a quACK is compared against: those
  of everything sent and not written off *below* a log index
  ``_boundary``.  A send touches no power sum; a quACK moves the
  boundary to the cut it needs (``_head_at``) and folds what the
  boundary passes, so a packet sent and then confirmed is folded once.
  With ``m > t`` the cheap question comes first: if the head without
  the newest ``m`` entries equals ``theirs`` (count and all ``t``
  sums), everything older arrived and nothing is decoded.
  That changes no answer.  The check passes iff the delta truncated by
  ``m - t`` is the power sums of the newest ``t`` kept entries; ``t``
  sums fix a degree-``t`` polynomial, so the decoder can only return
  those ``t`` entries, which are then the continuous missing suffix and
  in transit too.  Only two identifiers sharing a residue (one ``>= p``)
  could make it say *indeterminate* instead, so the check stands aside
  while the log holds one.
* **Dropped quACKs** cost nothing: all state is cumulative.

Identifier collisions yield *indeterminate* entries (no strikes, reported
separately), per Section 3.2.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.quack.base import DecodeStatus
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack


@dataclass(slots=True)
class LogEntry:
    """One unresolved sent packet."""

    identifier: int
    meta: Any
    sent_at: float
    strikes: int = field(default=0, init=False)


@dataclass(slots=True)
class QuackFeedback:
    """What one quACK told the sender.

    ``received``/``lost``/``suspected``/``indeterminate`` carry the
    ``meta`` objects passed to :meth:`QuackConsumer.record_send` (packet
    numbers, buffered packets -- whatever the protocol needs back).
    """

    status: DecodeStatus
    received: list[Any] = field(default_factory=list)
    lost: list[Any] = field(default_factory=list, init=False)
    suspected: list[Any] = field(default_factory=list, init=False)
    indeterminate: list[Any] = field(default_factory=list, init=False)
    in_transit: int = 0
    num_missing: int = 0
    reconciled: int = 0

    @property
    def ok(self) -> bool:
        return self.status is DecodeStatus.OK


@dataclass
class ConsumerStats:
    sent_logged: int = field(default=0, init=False)
    quacks_processed: int = field(default=0, init=False)
    quacks_failed: int = field(default=0, init=False)
    declared_lost: int = field(default=0, init=False)
    confirmed_received: int = field(default=0, init=False)
    gap_reconciled: int = field(default=0, init=False)
    #: quACKs with ``m > t`` answered by the check, without a decode.
    settled_in_order: int = field(default=0, init=False)


class QuackConsumer:
    """Sender-side quACK session state."""

    def __init__(self, threshold: int, bits: int = 32,
                 grace: int = 1) -> None:
        if grace < 1:
            raise ValueError(f"grace must be >= 1 quACK, got {grace}")
        # Power sums and wrapped count of everything sent and not written
        # off *below* log[_boundary]: what was confirmed, plus
        # log[:_boundary].  Entries from the boundary on are in no sum.
        self._head = PowerSumQuack(threshold, bits)
        self._boundary = 0
        self.grace = grace
        self.log: list[LogEntry] = []
        self.stats = ConsumerStats()
        # Recently *confirmed* identifiers, kept for resume reconciliation:
        # after a middlebox checkpoint/restore, packets observed between
        # the checkpoint and the crash may already be confirmed here (and
        # gone from the log) while absent from the restored accumulator.
        self._recent_confirmed: deque[int] = deque(maxlen=4 * threshold)
        self._reconcile_pending = False
        # Log entries whose identifier is not its own residue (>= p).
        self._aliased = 0

    @property
    def threshold(self) -> int:
        return self._head.threshold

    @property
    def bits(self) -> int:
        return self._head.bits

    @property
    def count_bits(self) -> int:
        return self._head.count_bits

    @property
    def sent_count(self) -> int:
        """The wrapped count of everything sent and not written off."""
        return (self._head.count + len(self.log) - self._boundary) \
            & ((1 << self._head.count_bits) - 1)

    def record_send(self, identifier: int, meta: Any, now: float) -> None:
        """Log one transmitted packet.  No power sum is touched: the
        packet is folded when a quACK moves the boundary over it."""
        self.log.append(LogEntry(identifier, meta, now))
        self._aliased += identifier >= self._head.field.modulus
        self.stats.sent_logged += 1

    @property
    def outstanding(self) -> int:
        """Unresolved log entries (sent, neither confirmed nor lost)."""
        return len(self.log)

    # -- the decode pipeline ---------------------------------------------------

    @staticmethod
    def _trace_decode(now: float, status: DecodeStatus, missing: int,
                      declared_lost: int = 0, in_transit: int = 0) -> None:
        """Emit the flow-level decode event.

        ``declared_lost``/``in_transit`` are optional extras (the schema
        requires only status/missing): how many buffered packets this
        decode actually struck out versus held back as still in flight --
        the numbers the SLO decode-failure budgets aggregate.
        """
        if obs.TRACER.enabled:
            obs.TRACER.emit("quack.decode", now, status=status.value,
                            missing=missing, declared_lost=declared_lost,
                            in_transit=in_transit)

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
        head = self._head
        if (not isinstance(theirs, PowerSumQuack)
                or theirs.field != head.field
                or theirs.threshold != head.threshold
                or theirs.count_bits != head.count_bits):
            # Parameter mismatch (e.g. a peer misconfigured after a
            # renegotiation): a protocol error to report, not a crash.
            self.stats.quacks_failed += 1
            self._trace_decode(now, DecodeStatus.INCONSISTENT, 0)
            return QuackFeedback(status=DecodeStatus.INCONSISTENT)
        m_total = (self.sent_count - theirs.count) \
            & ((1 << head.count_bits) - 1)
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
        in_transit = 0
        if m_total > self.threshold:
            if not self._reconcile_pending and not self._aliased:
                feedback = self._settle_in_order(theirs, m_total, now)
                if feedback is not None:
                    return feedback
            # Section 3.3, "In-flight packets": treat the newest
            # (m - t) unresolved packets as in transit and decode the rest.
            drop = min(m_total - self.threshold, len(self.log))
            kept = self.log[:len(self.log) - drop]
            in_transit = drop

        delta = self._head_at(len(kept)) - theirs
        result = decode_delta(delta, [e.identifier for e in kept] + recent)
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
                head.remove(identifier)
                reconciled += 1
            self.stats.gap_reconciled += reconciled
            self._reconcile_pending = False

        feedback = QuackFeedback(status=DecodeStatus.OK,
                                 num_missing=result.num_missing,
                                 in_transit=in_transit,
                                 reconciled=reconciled)
        # Trailing continuous run of missing entries is in transit.
        tail_start = len(kept)
        while tail_start > 0 and marks[tail_start - 1]:
            tail_start -= 1
        feedback.in_transit += len(kept) - tail_start

        survivors: list[LogEntry] = []
        p = head.field.modulus
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
                        head.remove(entry.identifier)
                        self._aliased -= entry.identifier >= p
                        self.stats.declared_lost += 1
                    else:
                        feedback.suspected.append(entry.meta)
                        survivors.append(entry)
            else:
                feedback.received.append(entry.meta)
                self._recent_confirmed.append(entry.identifier)
                self._aliased -= entry.identifier >= p
                self.stats.confirmed_received += 1
        # The truncated suffix stays in the log untouched and unfolded:
        # the boundary stays between it and what was decoded.
        self._boundary = len(survivors)
        survivors.extend(self.log[len(kept):])
        self.log = survivors
        self._trace_decode(now, DecodeStatus.OK, result.num_missing,
                           declared_lost=len(feedback.lost),
                           in_transit=feedback.in_transit)
        return feedback

    def _settle_in_order(self, theirs: PowerSumQuack, m_total: int,
                         now: float) -> QuackFeedback | None:
        """Confirm everything but the newest ``m_total`` entries, if that
        is all ``theirs`` lacks; None (and no change) when it is not."""
        cut = len(self.log) - m_total
        if self._head_at(cut) != theirs:
            return None
        confirmed = self.log[:cut]
        del self.log[:cut]
        self._boundary = 0
        self._recent_confirmed.extend([e.identifier for e in confirmed])
        self.stats.confirmed_received += cut
        self.stats.settled_in_order += 1
        feedback = QuackFeedback(status=DecodeStatus.OK,
                                 received=[e.meta for e in confirmed],
                                 in_transit=m_total,
                                 num_missing=self.threshold)
        self._trace_decode(now, DecodeStatus.OK, self.threshold,
                           in_transit=m_total)
        if obs.TRACER.enabled:
            # Direct: which path settled a quACK stays out of the trace.
            obs.count("quack_settled_in_order_total")
        return feedback

    def _head_at(self, cut: int) -> PowerSumQuack:
        """The head with its boundary moved to ``log[cut]``.

        The one place an identifier sent is folded: forward over what
        was sent or confirmed in order since the last quACK, back over
        at most the ``t`` entries a decode reached past the next check.
        """
        boundary = self._boundary
        if cut != boundary:
            if cut > boundary:
                self._head.insert_many(
                    [entry.identifier for entry in self.log[boundary:cut]])
            else:
                for entry in self.log[cut:boundary]:
                    self._head.remove(entry.identifier)
            self._boundary = cut
        return self._head

    @staticmethod
    def _mark_entries(kept: list[LogEntry],
                      missing: Counter) -> list[bool]:
        """True per entry if it carries one of the missing identifiers.

        For identifiers sent multiple times, the *latest* copies absorb
        the missing marks.
        """
        marks = [False] * len(kept)
        budget = Counter(missing)
        for index in range(len(kept) - 1, -1, -1):
            identifier = kept[index].identifier
            if budget.get(identifier, 0) > 0:
                budget[identifier] -= 1
                marks[index] = True
        return marks

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
        count = 0
        for entry in self.log:  # in send order: the expired are a prefix
            if entry.sent_at >= cutoff:
                break
            count += 1
        return self._write_off_oldest(count)

    def evict_oldest(self) -> Any | None:
        """Write off the single oldest unresolved entry (buffer bound).

        Same power-sum bookkeeping (and the same reordering hazard) as
        :meth:`expire_older_than`; returns the evicted meta, or None when
        the log is empty.
        """
        return self._write_off_oldest(1)[0] if self.log else None

    def _write_off_oldest(self, count: int) -> list[Any]:
        """Drop ``log[:count]`` from the log, and what the boundary had
        passed of it from the head; the boundary keeps its place among
        the entries that stay."""
        if not count:
            return []
        gone = self.log[:count]
        del self.log[:count]
        p = self._head.field.modulus
        for entry in gone[:self._boundary]:
            self._head.remove(entry.identifier)
        for entry in gone:
            self._aliased -= entry.identifier >= p
        self._boundary = max(self._boundary - count, 0)
        self.stats.declared_lost += count
        return [entry.meta for entry in gone]

    def arm_reconciliation(self) -> None:
        """Expect a checkpoint gap in the next successful decode (call
        after accepting a middlebox resume; :mod:`repro.sidecar.snapshot`
        has why).  One-shot: cleared by the first successful decode, kept
        armed by a failed one."""
        self._reconcile_pending = True

    def reset(self) -> None:
        """Hard session reset (after unrecoverable decode failures)."""
        self._head = PowerSumQuack(self.threshold, self.bits, self.count_bits)
        self.log.clear()
        self._boundary = self._aliased = 0
        self._recent_confirmed.clear()
        self._reconcile_pending = False
