"""Sender-side quACK plausibility validation and the quarantine ledger.

The chaos harness models *faulty* sidecars (drops, corruption,
restarts); this module defends against *adversarial* ones.  The threat
model follows Secure Middlebox-Assisted QUIC and PEMI: middlebox
assistance is deployable only when the endpoint can bound what a
misbehaving helper can do, so every quACK signal is treated as an
untrusted hint.  The CRC on the wire is an integrity check against
channel noise, not authentication -- an on-path adversary can emit
CRC-valid frames carrying arbitrary lies.

The :class:`PlausibilityValidator` sits in front of
:meth:`~repro.sidecar.consumer.QuackConsumer.on_quack` and enforces what
an honest observer *cannot* violate:

* **count monotonicity** (modulo the c-bit wraparound) -- the observer's
  cumulative count only moves forward.  A snapshot slightly behind the
  best accepted count is network reordering and carries strictly less
  information than what we already have, so it is dropped silently; a
  regression in the restart band (:func:`count_regression`) is a
  replayed old snapshot or a wiped accumulator, and is dropped *and*
  signalled -- never healed by a reset, which a replayer could farm into
  a standing stall (an honest restart heals through the resume
  handshake of :mod:`repro.sidecar.snapshot` instead).
* **count <= packets actually sent** -- the observer cannot have seen
  more of the flow than the sender put on the wire.
* **inter-quACK rate sanity** -- an honest emitter is bounded by its
  frequency policy; a flood of snapshots is a signal in itself.
* **decoded-missing subseteq sent-log** -- enforced structurally by the
  decoder, which only matches roots against the sender's own log
  (:func:`~repro.quack.decoder.decode_delta`); no separate gate checks
  it again.
* **forged evidence** -- a CRC-valid snapshot that passes every count
  gate but whose power sums and count disagree (an undecodable delta)
  is cryptographically inconsistent state: either an extremely rare
  reordering artifact or a tampered frame.

Each violation is a typed :class:`AdversarialSignal` feeding the
:class:`QuarantineLedger`.  Enough signals inside a window and the
ledger's verdict moves the
:class:`~repro.sidecar.health.HealthMonitor` to its ``QUARANTINED``
rung: all sidecar signals off, no more resets (a lying sidecar must not
be able to stall the sender with reset round-trips), re-entry only
through a double probation.

The count arithmetic under the gates (:func:`count_lead`,
:func:`count_regression`, :func:`resume_implausibility`) is shared with
sessions that arm no defense: they read the same verdicts and answer
with a reset instead of a signal.

Nothing here touches the transport; the owner
(:class:`~repro.sidecar.agents.ConsumerEndpoint`) consults the validator's
:class:`Verdict` per snapshot and acts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.quack.base import DecodeStatus


class SignalKind(Enum):
    """Typed plausibility violations, one per gate."""

    #: The snapshot claims more packets observed than were ever sent.
    COUNT_AHEAD = "count_ahead"
    #: Same-epoch count regressed into the restart band: a replayed old
    #: snapshot (or a wiped accumulator presented without a resume).
    COUNT_REGRESSION = "count_regression"
    #: Snapshots arriving faster than any honest frequency policy.
    RATE_ANOMALY = "rate_anomaly"
    #: Count gates passed but the delta is undecodable: power sums and
    #: count disagree inside a checksum-valid frame.
    FORGED_EVIDENCE = "forged_evidence"
    #: A decoded missing identifier outside the sender's own log.
    MISSING_NOT_SENT = "missing_not_sent"
    #: A ResumeMessage whose epoch/count no honest restart produces.
    IMPLAUSIBLE_RESUME = "implausible_resume"
    #: The capability handshake was tampered with: a HELLO-ACK whose
    #: transcript hash does not match the offer actually sent (rewritten
    #: offer), or offers stripped past the loss allowance.
    DOWNGRADE = "downgrade"


@dataclass(frozen=True)
class AdversarialSignal:
    """One recorded plausibility violation."""

    time: float
    kind: SignalKind
    flow_id: str
    detail: str
    observed: int = 0
    expected: int = 0


#: A same-epoch count regression of this many thresholds or more cannot
#: be snapshot reordering: the accumulator was wiped, or an old snapshot
#: replayed.
RESTART_MARGIN_THRESHOLDS = 4

#: The rate gate's sliding window, seconds.
RATE_WINDOW_S = 0.05

#: Quarantine: this many signals inside :data:`SIGNAL_WINDOW_S` seconds.
QUARANTINE_AFTER = 3
SIGNAL_WINDOW_S = 5.0


def count_lead(count: int, reference: int, modulus: int) -> int:
    """How far ``count`` runs ahead of ``reference`` on the c-bit circle
    (counts are cumulative modulo ``2**count_bits``); a lead of half the
    circle or more is the other count leading, and reads as 0."""
    lead = (count - reference) % modulus
    return lead if lead < modulus // 2 else 0


def count_regression(reference: int | None, count: int, modulus: int,
                     margin: int) -> tuple[int, bool]:
    """``(behind, wiped)`` for a same-epoch ``count`` against the last
    accepted one: how far it trails (0: level, ahead, or no reference
    yet), and whether that is the restart band -- ``margin`` or more,
    where the cumulative states can never re-converge on their own."""
    if reference is None:
        return 0, False
    behind = count_lead(reference, count, modulus)
    return behind, behind >= margin


def resume_implausibility(epoch: int, count: int, current_epoch: int,
                          sent_count: int,
                          modulus: int) -> tuple[str, int, int] | None:
    """Why no honest restart announces ``(epoch, count)``, as ``(detail,
    observed, expected)``; None when one could: an epoch this side
    issued, at a count no further along than the sent log.  (A *past*
    epoch is not implausible, only stale -- see
    :func:`~repro.sidecar.snapshot.resume_verdict`.)"""
    if epoch > current_epoch:
        return (f"resume claims epoch {epoch}, never issued "
                f"(current {current_epoch})", epoch, current_epoch)
    ahead = count_lead(count, sent_count, modulus)
    if ahead:
        return (f"resume count runs {ahead} ahead of the sent log",
                count, sent_count)
    return None


@dataclass
class DefenseConfig:
    """Arms the plausibility gates and the quarantine ledger."""

    #: Rate gate: more than ``rate_max`` snapshots inside
    #: :data:`RATE_WINDOW_S` seconds trips RATE_ANOMALY.  None disables.
    rate_max: int | None = None

    def __post_init__(self) -> None:
        if self.rate_max is not None and self.rate_max < 1:
            raise ValueError(f"rate_max must be >= 1, got {self.rate_max}")


@dataclass(frozen=True)
class Verdict:
    """What to do with one snapshot.

    ``action`` is ``accept`` (feed the consumer), ``drop`` (discard --
    stale reordering or an active violation), or ``regressed`` (discard
    and signalled: the restart/replay band; the owner decides whether a
    reset-based heal is still trusted).  ``signal`` is the violation to
    ledger, if any.
    """

    action: str
    signal: AdversarialSignal | None = None


_ACCEPT = Verdict(action="accept")


@dataclass
class ValidatorStats:
    checked: int = field(default=0, init=False)
    accepted: int = field(default=0, init=False)
    stale_dropped: int = field(default=0, init=False)
    signals: int = field(default=0, init=False)


class PlausibilityValidator:
    """Stateful plausibility gates for one flow's quACK stream."""

    def __init__(self, config: DefenseConfig, threshold: int,
                 count_bits: int, flow_id: str) -> None:
        self.config = config
        self.flow_id = flow_id
        self.modulus = 1 << count_bits
        self.replay_margin = RESTART_MARGIN_THRESHOLDS * threshold
        #: The furthest-forward count accepted so far (mod-aware), or
        #: None before the first accepted snapshot.
        self.max_count: int | None = None
        self._arrivals: deque[float] = deque()
        self.stats = ValidatorStats()

    # -- bookkeeping the owner drives -----------------------------------------

    def note_accepted(self, count: int) -> None:
        """An accepted snapshot advanced the high-water count."""
        self.stats.accepted += 1
        if self.max_count is None \
                or count_lead(count, self.max_count, self.modulus):
            self.max_count = count

    def rewind(self, count: int) -> None:
        """A validated resume handshake re-based the emitter at ``count``."""
        self.max_count = count

    # -- the gates -------------------------------------------------------------

    def _signal(self, now: float, kind: SignalKind, detail: str,
                observed: int, expected: int) -> AdversarialSignal:
        return AdversarialSignal(time=now, kind=kind, flow_id=self.flow_id,
                                 detail=detail, observed=observed,
                                 expected=expected)

    def check_snapshot(self, count: int, sent_count: int,
                       now: float) -> Verdict:
        """Run the pre-decode gates over one snapshot's count."""
        self.stats.checked += 1
        signal = self._check_rate(now)
        if signal is None:
            signal = self._check_ahead(count, sent_count, now)
        if signal is not None:
            self.stats.signals += 1
            return Verdict(action="drop", signal=signal)
        behind, wiped = count_regression(self.max_count, count, self.modulus,
                                         self.replay_margin)
        if wiped:
            self.stats.signals += 1
            return Verdict(action="regressed", signal=self._signal(
                now, SignalKind.COUNT_REGRESSION,
                f"count regressed {behind} "
                f"(replay margin {self.replay_margin})",
                count, self.max_count))
        if behind:
            # A slightly older snapshot of a cumulative accumulator
            # carries strictly less information: benign reordering.
            self.stats.stale_dropped += 1
            return Verdict(action="drop")
        return _ACCEPT

    def _check_rate(self, now: float) -> AdversarialSignal | None:
        if self.config.rate_max is None:
            return None
        arrivals = self._arrivals
        arrivals.append(now)
        while arrivals and arrivals[0] <= now - RATE_WINDOW_S:
            arrivals.popleft()
        if len(arrivals) > self.config.rate_max:
            return self._signal(
                now, SignalKind.RATE_ANOMALY,
                f"{len(arrivals)} snapshots inside {RATE_WINDOW_S} s "
                f"(max {self.config.rate_max})",
                len(arrivals), self.config.rate_max)
        return None

    def _check_ahead(self, count: int, sent_count: int,
                     now: float) -> AdversarialSignal | None:
        # An observer can never have seen a packet that was not sent.
        ahead = count_lead(count, sent_count, self.modulus)
        if ahead:
            return self._signal(
                now, SignalKind.COUNT_AHEAD,
                f"observer claims {ahead} more packets than were sent",
                count, sent_count)
        return None

    def classify_decode_failure(self, status: DecodeStatus, num_missing: int,
                                outstanding: int,
                                now: float) -> AdversarialSignal | None:
        """Post-decode gate: an undecodable delta behind valid count gates.

        An honest emitter's snapshot always satisfies
        ``missing <= outstanding`` and its power sums always match its
        count (both are maintained by the same fold), so an
        INCONSISTENT delta whose counts passed the pre-decode gates
        means the frame's count and sums disagree -- forged evidence.
        (The rare honest cause is the Section 3.3 reordering hazard of
        an expired packet arriving late; the ledger's window absorbs
        singletons.)
        """
        if status is not DecodeStatus.INCONSISTENT:
            return None
        return self._signal(
            now, SignalKind.FORGED_EVIDENCE,
            f"checksum-valid snapshot undecodable "
            f"({num_missing} missing vs {outstanding} outstanding)",
            num_missing, outstanding)

    def check_resume(self, epoch: int, count: int, *, current_epoch: int,
                     sent_count: int, now: float) -> AdversarialSignal | None:
        """The signal an implausible ResumeMessage earns; None: accept."""
        why = resume_implausibility(epoch, count, current_epoch, sent_count,
                                    self.modulus)
        if why is None:
            return None
        return self._signal(now, SignalKind.IMPLAUSIBLE_RESUME, *why)


# -- the quarantine ledger -----------------------------------------------------

@dataclass
class QuarantineLedger:
    """Per-sidecar record of violations and the quarantine verdict.

    The ledger is append-only evidence: every signal is kept (the audit
    trail chaos tests and ``repro analyze`` read), and once
    :data:`QUARANTINE_AFTER` signals land inside :data:`SIGNAL_WINDOW_S`
    the ledger's verdict flips.  It lasts as long as the ladder's
    QUARANTINED rung: once the health ladder has re-admitted the channel
    (probation is its business) a signal is judged against the window
    afresh.
    """

    signals: list[AdversarialSignal] = field(default_factory=list,
                                             init=False)
    quarantined_at: float | None = field(default=None, init=False)
    quarantines: int = field(default=0, init=False)
    #: ``signals[_fresh_from:]`` arrived since the last re-admission.
    _fresh_from: int = field(default=0, init=False)

    def record(self, signal: AdversarialSignal) -> bool:
        """Ledger one signal; True when this one trips quarantine."""
        self.signals.append(signal)
        if self.quarantined_at is not None:
            return False
        horizon = signal.time - SIGNAL_WINDOW_S
        recent = sum(1 for s in self.signals[self._fresh_from:]
                     if s.time > horizon)
        if recent >= QUARANTINE_AFTER:
            self.quarantined_at = signal.time
            self.quarantines += 1
            return True
        return False

    def judge(self, signal: AdversarialSignal,
              quarantined: bool) -> tuple[bool, str | None]:
        """Ledger ``signal``; ``(tripped, reason)``: :meth:`record`'s
        verdict, and what to tell the health ladder's ``on_adversarial``
        (None: nothing) -- the verdict when it trips, the bare kind while
        already ``quarantined``, so that a peer which keeps lying
        restarts its clean-probation clock.  A verdict standing on a
        channel no longer ``quarantined`` has been served."""
        if not quarantined and self.quarantined_at is not None:
            self.quarantined_at = None
            self._fresh_from = len(self.signals)
        if self.record(signal):
            return True, f"quarantined: {signal.kind.value}"
        return False, signal.kind.value if quarantined else None

    def by_kind(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for signal in self.signals:
            tally[signal.kind.value] = tally.get(signal.kind.value, 0) + 1
        return tally

    @property
    def quarantined(self) -> bool:
        return self.quarantined_at is not None
