"""The Section 3.3 reset handshake, both halves.

"If the number of missing packets exceeds the threshold, the sender and
receiver must reset the connection if they wish to use the quACK."  The
consumer originates, since it is the side that sees decodes fail: after
``reset_after_failures`` consecutive failures -- or, where no defense is
armed, one same-epoch count that fell back into the restart band, which
means the middlebox crashed and came back empty -- it pauses its
transport, lets the pipe drain for ``settle_time`` (which must exceed
the path's worst-case delivery time), restarts its cumulative state
under the next epoch, announces the epoch, and waits a second
``settle_time``, so that nothing sent before the reset can be counted in
the new epoch, before it resumes.  Snapshots of any other epoch are
discarded, and older ones answered with a repeat announcement.  Until a
snapshot of the new epoch proves the emitter heard, the announcement is
repeated on a doubling clock (``2 * settle_time`` up to
:data:`RETRY_CAP_S`): a lost announcement can delay an epoch, never
deadlock it.  Corrupt frames do not count toward the trigger -- a reset
cannot fix a noisy channel -- and a quarantined channel gets no resets
at all (:mod:`repro.sidecar.defense`).

A holder that cannot pause (an in-path observer: the retransmitting
proxy) runs the same handshake with its log still fed: the restart is
what discards the old epoch, and the announcement leaves on the same
FIFO hop behind the last packet logged in it, so both sides cut at the
same packet.  A lost announcement costs the packets logged before the
emitter adopts -- repaired once, or past the threshold one more reset.

:class:`ResetInitiator` is the consumer's half as events in, verdicts
out; its owner (:class:`~repro.sidecar.agents.ConsumerEndpoint`, the
receiving role) pauses, schedules and sends.  :func:`epoch_verdict` is
the emitter's half.
"""

from __future__ import annotations

from repro.sidecar.defense import RESTART_MARGIN_THRESHOLDS, count_regression

#: Ceiling of the doubling announcement-retry delay, seconds.
RETRY_CAP_S = 2.0


class ResetInitiator:
    """Consumer half: epoch, settling, confirmation, backoff, restarts."""

    def __init__(self, threshold: int, count_bits: int,
                 reset_after_failures: int | None,
                 settle_time: float) -> None:
        self.reset_after_failures = reset_after_failures
        self.settle_time = settle_time
        self.restart_margin = RESTART_MARGIN_THRESHOLDS * threshold
        self.modulus = 1 << count_bits
        self.epoch = 0
        #: From the trigger to the end of the second settle window (set
        #: and cleared by the owner, which pauses and resumes with it).
        self.settling = False
        #: Has a snapshot of the current epoch arrived (the emitter heard)?
        self.confirmed = True
        self.consecutive_failures = 0
        self.last_emitter_count: int | None = None
        self.retry_delay = 0.0

    def on_failure(self, quarantined: bool) -> bool:
        """One undecodable snapshot; True when a reset should begin."""
        self.consecutive_failures += 1
        return (self.reset_after_failures is not None
                and not self.settling and not quarantined
                and self.consecutive_failures >= self.reset_after_failures)

    def on_decoded(self, count: int) -> None:
        """A snapshot at cumulative ``count`` decoded against the log."""
        self.consecutive_failures = 0
        self.last_emitter_count = count

    def restarted(self, count: int) -> bool:
        """Does this same-epoch snapshot reveal a wiped emitter?  Its
        count only moves forward (small reorderings aside); after a fall
        into the restart band the states re-converge only by a reset."""
        return count_regression(self.last_emitter_count, count, self.modulus,
                                self.restart_margin)[1]

    def next_epoch(self) -> float:
        """The pipe has drained: open the next epoch, unconfirmed, and
        return the delay to the first repeat of its announcement."""
        self.epoch += 1
        self.consecutive_failures = 0
        self.last_emitter_count = None
        self.confirmed = False
        self.retry_delay = 2 * self.settle_time
        return self.retry_delay

    def back_off(self) -> float:
        """An announcement went unanswered: the delay to the next one."""
        self.retry_delay = min(2 * self.retry_delay, RETRY_CAP_S)
        return self.retry_delay

    def rebase(self, count: int) -> None:
        """An accepted resume: the emitter speaks this epoch, at ``count``."""
        self.confirmed = True
        self.on_decoded(count)


def epoch_verdict(current: int, announced: int) -> str:
    """The emitter's rule for a ResetMessage: ``new``, ``duplicate``
    (resends are idempotent) or ``stale`` (out-of-order delivery of an
    old handshake, ignored)."""
    if announced > current:
        return "new"
    return "duplicate" if announced == current else "stale"
