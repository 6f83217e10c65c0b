"""Sender-side sidecar health: the graceful-degradation ladder.

The paper's deployment contract is that a sidecar is *strictly optional*
assistance: "the underlying protocol remains unmodified on the wire and
free to evolve" (Section 1), so a crashed, lossy, or corrupting sidecar
must never hurt end-to-end correctness.  This module gives the sender a
small state machine that enforces the contract actively instead of by
accident:

``HEALTHY``
    Full assistance: quACK receipts move the window, decoded losses
    trigger early retransmission/CC response.
``DEGRADED``
    The channel is suspect (a few consecutive decode failures).  Receipts
    still credit the window, but loss *declarations* are withheld -- a
    corrupted channel must not trigger spurious retransmissions or cwnd
    cuts.
``E2E_ONLY``
    The channel is unusable (many failures, or no decodable quACK within
    the staleness horizon -- e.g. a blackout).  All sidecar signals are
    disabled and, if congestion control had been divided
    (``cc_from_acks=False``), it is handed back to the end-to-end ACKs
    (:attr:`HealthMonitor.allow_cc_division`) so the transfer proceeds
    exactly as an unassisted connection.
``RECOVERING``
    Decodable quACKs are arriving again.  Signals stay off for a
    probation window; a clean window re-enters ``HEALTHY``, any failure
    falls straight back to ``E2E_ONLY``.
``QUARANTINED``
    The channel is not merely broken but *lying*: the quarantine ledger
    (:mod:`repro.sidecar.defense`) proved plausibility violations, so no
    signal from this sidecar can be trusted.  Terminal until probation:
    unlike E2E_ONLY -- which re-enters RECOVERING on the first decodable
    quACK -- a quarantined channel must first sustain
    :data:`QUARANTINE_PROBATION_S` seconds of *clean* decodes before it is
    even allowed onto the RECOVERING rung (and then serves the normal
    probation on top).  Staleness cannot lift it and any failure or
    fresh violation restarts the clock.

The monitor is driven by its owner (:class:`~repro.sidecar.agents
.ConsumerEndpoint`): ``on_good_quack`` / ``on_failure`` per processed
snapshot, ``on_stale`` from a staleness timer, ``on_adversarial`` from
the quarantine ledger's verdict.  It never touches the transport
itself; the owner reads :attr:`allow_receipts` / :attr:`allow_losses` /
:attr:`allow_cc_division` / :attr:`e2e_only` / :attr:`quarantined` and
acts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro import obs

#: Clean seconds a QUARANTINED channel must sustain before it may
#: re-enter RECOVERING (re-entry is deliberately slower than the failure
#: path's: E2E_ONLY recovers on the first decodable quACK).
QUARANTINE_PROBATION_S = 1.0


class HealthState(Enum):
    """Rungs of the degradation ladder, healthiest first."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    E2E_ONLY = "e2e_only"
    RECOVERING = "recovering"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change (the audit trail chaos tests check)."""

    time: float
    old: HealthState
    new: HealthState
    reason: str


@dataclass
class HealthConfig:
    """Thresholds of the ladder.

    ``stale_after`` must comfortably exceed the emitter's quACK cadence
    plus one path delay, or a healthy-but-quiet channel reads as dead;
    ``probation`` trades re-entry speed against flapping.
    """

    degrade_after: int = 2       # consecutive failures -> DEGRADED
    e2e_only_after: int = 5      # consecutive failures -> E2E_ONLY
    stale_after: float = 1.0     # seconds without a decodable quACK
    probation: float = 0.5       # clean seconds before RECOVERING -> HEALTHY

    def __post_init__(self) -> None:
        if self.degrade_after < 1 or self.e2e_only_after < self.degrade_after:
            raise ValueError(
                f"need 1 <= degrade_after <= e2e_only_after, got "
                f"{self.degrade_after}, {self.e2e_only_after}")
        if self.stale_after <= 0 or self.probation < 0:
            raise ValueError("stale_after must be > 0 and probation >= 0")


@dataclass
class HealthStats:
    degradations: int = field(default=0, init=False)
    e2e_fallbacks: int = field(default=0, init=False)
    recoveries: int = field(default=0, init=False)
    quarantines: int = field(default=0, init=False)
    transitions: list[HealthTransition] = field(default_factory=list,
                                                init=False)


class HealthMonitor:
    """Tracks sidecar-channel health; answers "may I apply this signal?"."""

    def __init__(self, config: HealthConfig | None = None) -> None:
        self.config = config if config is not None else HealthConfig()
        self.state = HealthState.HEALTHY
        self.stats = HealthStats()
        self.consecutive_failures = 0
        self.last_good_quack: float | None = None
        self._probation_started: float | None = None
        self._quarantine_clean_since: float | None = None

    # -- signal gating --------------------------------------------------------

    @property
    def allow_receipts(self) -> bool:
        """May quACK receipts credit the sender's window?"""
        return self.state in (HealthState.HEALTHY, HealthState.DEGRADED)

    @property
    def allow_losses(self) -> bool:
        """May quACK-decoded losses drive retransmission/CC?"""
        return self.state is HealthState.HEALTHY

    @property
    def allow_cc_division(self) -> bool:
        """May the sidecar keep a divided congestion controller?  Only
        while receipts flow; otherwise the e2e ACKs get it back."""
        return self.allow_receipts

    @property
    def e2e_only(self) -> bool:
        return self.state is HealthState.E2E_ONLY

    @property
    def quarantined(self) -> bool:
        return self.state is HealthState.QUARANTINED

    # -- events ---------------------------------------------------------------

    def on_good_quack(self, now: float) -> None:
        """A snapshot of the current epoch decoded cleanly."""
        self.consecutive_failures = 0
        self.last_good_quack = now
        if self.state is HealthState.QUARANTINED:
            if self._quarantine_clean_since is None:
                self._quarantine_clean_since = now
            elif (now - self._quarantine_clean_since
                    >= QUARANTINE_PROBATION_S):
                self._quarantine_clean_since = None
                self._probation_started = now
                self._transition(now, HealthState.RECOVERING,
                                 "quarantine probation served")
        elif self.state in (HealthState.E2E_ONLY, HealthState.DEGRADED):
            self._probation_started = now
            self._transition(now, HealthState.RECOVERING, "decodable again")
        elif self.state is HealthState.RECOVERING:
            assert self._probation_started is not None
            if now - self._probation_started >= self.config.probation:
                self._probation_started = None
                self.stats.recoveries += 1
                self._transition(now, HealthState.HEALTHY, "probation served")

    def on_failure(self, now: float, reason: str = "decode failure") -> None:
        """A snapshot arrived but could not be used (corrupt/undecodable)."""
        self.consecutive_failures += 1
        if self.state is HealthState.QUARANTINED:
            # Terminal until probation: a failure restarts the clean clock.
            self._quarantine_clean_since = None
            return
        if self.state is HealthState.RECOVERING:
            self._probation_started = None
            self._transition(now, HealthState.E2E_ONLY,
                             f"{reason} during probation")
        elif self.consecutive_failures >= self.config.e2e_only_after:
            if self.state is not HealthState.E2E_ONLY:
                self.stats.e2e_fallbacks += 1
                self._transition(now, HealthState.E2E_ONLY,
                                 f"{self.consecutive_failures} consecutive "
                                 f"failures ({reason})")
        elif self.consecutive_failures >= self.config.degrade_after:
            if self.state is HealthState.HEALTHY:
                self.stats.degradations += 1
                self._transition(now, HealthState.DEGRADED,
                                 f"{self.consecutive_failures} consecutive "
                                 f"failures ({reason})")

    def on_stale(self, now: float) -> None:
        """The staleness timer found no decodable quACK within the horizon."""
        if self.state in (HealthState.E2E_ONLY, HealthState.QUARANTINED):
            return  # quarantine outranks staleness: silence is no pardon
        if self.state is HealthState.RECOVERING:
            self._probation_started = None
        self.stats.e2e_fallbacks += 1
        self._transition(now, HealthState.E2E_ONLY, "quACKs stale")

    def on_adversarial(self, now: float, reason: str = "plausibility") -> None:
        """The quarantine ledger's verdict: this channel is lying.

        Enters (or re-confirms) QUARANTINED from any rung.  While
        quarantined a fresh violation restarts the clean-probation
        clock, so an adversary that keeps lying never re-enters.
        """
        self._probation_started = None
        self._quarantine_clean_since = None
        if self.state is HealthState.QUARANTINED:
            return
        self.stats.quarantines += 1
        self._transition(now, HealthState.QUARANTINED, reason)

    def is_stale(self, now: float) -> bool:
        """No decodable quACK within the configured horizon?"""
        reference = self.last_good_quack if self.last_good_quack is not None \
            else 0.0
        return now - reference >= self.config.stale_after

    # -- internals ------------------------------------------------------------

    def _transition(self, now: float, new: HealthState, reason: str) -> None:
        if new is self.state:
            return
        self.stats.transitions.append(
            HealthTransition(time=now, old=self.state, new=new, reason=reason))
        if obs.TRACER.enabled:
            obs.TRACER.emit("sidecar.health", now, old=self.state.value,
                            new=new.value, reason=reason)
        self.state = new
