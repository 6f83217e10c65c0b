"""Capability negotiation: versions, features, and downgrade protection.

The paper (Section 2) has consenting sidecars "configure sidecar
protocol parameters with each other such as the communication frequency
and properties of the quACK"; this module is that configuration step,
hardened the way Secure Middlebox-Assisted QUIC argues middlebox
assistance must be: *explicitly negotiated, with downgrade resistance*.

The handshake is one round trip, initiated by the quACK consumer
(:class:`~repro.sidecar.agents.ConsumerEndpoint`) before any assistance
starts:

* **HELLO** -- the initiator offers its supported protocol-version range,
  the quACK parameters it wants (threshold ``t``, identifier ``bits``
  ``b``), its preferred emission interval, and its feature bits.
* **HELLO-ACK** -- the responder picks the *highest mutually supported*
  version, clamps the parameters to what it can actually deliver,
  intersects the feature bits, and echoes a SHA-256 **transcript hash**
  over the offer exactly as received.

The transcript hash is the downgrade protection.  An on-path adversary
who rewrites the offer (say, clamping ``max_version`` to pin the session
at v1, or stripping feature bits) changes the bytes the responder
hashes; the initiator compares the echoed hash against the offer it
actually sent and treats any mismatch as a
:class:`~repro.sidecar.defense.SignalKind.DOWNGRADE` attack feeding the
quarantine ledger.  An adversary who *strips* HELLOs entirely cannot
force a silent fallback either: the initiator retries on a timer and,
past :attr:`NegotiateConfig.strip_after` unanswered offers, ledgers each
further timeout as the same downgrade signal -- enough of them and the
channel is QUARANTINED, with the transport already running pure
end-to-end (assistance never starts before the handshake completes, so
goodput never drops below the unassisted baseline).

Negotiation sets a capability *ceiling*; the wire keeps speaking v1
until a :class:`~repro.sidecar.protocol.VersionSwitchMessage` pinned to
the current epoch flips both peers mid-connection (no reset --
cumulative quACK state is version-independent).  The consumer sends
under the new version at once; on its receive side, frames under the
pre-switch version stay valid until the first new-version frame proves
the emitter adopted the switch -- the switch shares the forward link
with DATA and can queue behind a full bottleneck buffer, so a deadline
would misclassify a healthy emitter's snapshots as stale -- plus one
:attr:`NegotiateConfig.switch_grace_s` window for reordered stragglers;
after that they are counted stale and dropped.

Both halves live here as events in, answers out: :class:`Session` is
the agreed state either role keeps, with the responder's two rules;
:class:`Initiator` is the consumer's offer, echo check and frame gate.
The agents in :mod:`repro.sidecar.agents` own timers and datagrams.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.sidecar.defense import AdversarialSignal, SignalKind
from repro.sidecar.protocol import (
    HelloAckMessage,
    HelloMessage,
    VersionSwitchMessage,
    encode_control,
)

#: Sidecar protocol versions this build implements end to end.
PROTOCOL_VERSIONS = (1, 2)

#: Feature bits carried in HELLO/HELLO-ACK (and, under v2 framing, in
#: every frame header so peers can audit the negotiated configuration).
FEATURE_RESUME = 0x01          #: checkpoint/restore resume handshake
FEATURE_DEFENSE = 0x02         #: plausibility gates + quarantine ledger
FEATURE_VERSION_SWITCH = 0x04  #: mid-connection version upgrades

ALL_FEATURES = FEATURE_RESUME | FEATURE_DEFENSE | FEATURE_VERSION_SWITCH

_FEATURE_NAMES = {
    FEATURE_RESUME: "resume",
    FEATURE_DEFENSE: "defense",
    FEATURE_VERSION_SWITCH: "version-switch",
}


def feature_names(bits: int) -> list[str]:
    """Human-readable names of the feature bits set in ``bits``."""
    return [name for bit, name in sorted(_FEATURE_NAMES.items())
            if bits & bit]


@dataclass(frozen=True)
class Capabilities:
    """What one sidecar endpoint can speak and wants to use.

    The initiator's capabilities become the HELLO offer; the responder's
    clamp it.  QuACK parameters are maxima the endpoint can afford; no
    endpoint states an emission-interval preference (the HELLO field is
    sent as 0).
    """

    min_version: int = 1
    max_version: int = 2
    threshold: int = 20
    bits: int = 32
    features: int = ALL_FEATURES

    def __post_init__(self) -> None:
        if not 1 <= self.min_version <= self.max_version:
            raise ValueError(
                f"version range {self.min_version}..{self.max_version} "
                f"is empty or starts below 1")

    def hello(self, flow_id: str, threshold: int, bits: int) -> HelloMessage:
        """The capability offer for one flow, at the consumer's actual
        session parameters ``threshold``/``bits``."""
        return HelloMessage(
            flow_id=flow_id, min_version=self.min_version,
            max_version=self.max_version, threshold=threshold, bits=bits,
            features=self.features)


def select_version(offer_min: int, offer_max: int,
                   own_min: int, own_max: int) -> int | None:
    """The highest mutually supported version, or None if none overlap."""
    low = max(offer_min, own_min)
    high = min(offer_max, own_max)
    return high if low <= high else None


def hello_transcript(hello: HelloMessage) -> bytes:
    """SHA-256 over the offer's canonical (v1) encoding.

    Both sides hash the offer *as they saw it* -- the responder hashes
    what arrived, the initiator hashes what it sent -- via the same
    deterministic v1 re-encoding, so any on-path rewrite of any offer
    field produces a mismatch the initiator can detect in the echo.
    """
    return hashlib.sha256(encode_control(hello, version=1)).digest()


def respond(offer: HelloMessage, own: Capabilities) -> HelloAckMessage | None:
    """The responder's answer to a capability offer.

    Picks the highest mutual version, clamps quACK parameters to what
    this endpoint affords, intersects feature bits, and embeds the
    transcript hash of the offer as received.  ``None`` means no version
    overlaps -- the responder stays silent and never assists.
    """
    chosen = select_version(offer.min_version, offer.max_version,
                            own.min_version, own.max_version)
    if chosen is None:
        return None
    return HelloAckMessage(
        flow_id=offer.flow_id,
        version=chosen,
        threshold=min(offer.threshold, own.threshold),
        bits=min(offer.bits, own.bits),
        interval_us=offer.interval_us,
        features=offer.features & own.features,
        transcript=hello_transcript(offer),
    )


@dataclass
class NegotiateConfig:
    """Arms capability negotiation on an agent (consumer or emitter).

    ``retry_s`` is the initiator's offer-retry timer; ``strip_after`` is
    how many consecutive unanswered offers are written off as loss
    before each further timeout ledgers a DOWNGRADE signal;
    ``switch_grace_s`` is roughly one RTT -- how long pre-switch frames
    stay tolerated after the first new-version frame.
    """

    capabilities: Capabilities = field(default_factory=Capabilities)
    retry_s: float = 0.15
    strip_after: int = 2
    switch_grace_s: float = 0.1

    def __post_init__(self) -> None:
        if self.retry_s <= 0:
            raise ValueError(f"retry_s must be > 0, got {self.retry_s}")
        if self.strip_after < 1:
            raise ValueError(
                f"strip_after must be >= 1, got {self.strip_after}")
        if self.switch_grace_s < 0:
            raise ValueError(
                f"switch_grace_s must be >= 0, got {self.switch_grace_s}")


class Session:
    """What one sidecar session agreed to and what its wire speaks now.

    Both roles keep one.  ``version``/``features`` are the negotiated
    ceiling (None until a handshake, or a checkpoint proving one, fixes
    it); ``wire_version``/``wire_features`` are stamped on the frames
    this side sends.  ``ready``: may assistance flow?  At once where
    negotiation is not ``armed``, otherwise from the agreement on.
    """

    def __init__(self, armed: bool) -> None:
        self.ready = not armed
        self.version: int | None = None
        self.features = 0
        self.wire_version = 1
        self.wire_features = 0

    def agree(self, version: int, features: int) -> None:
        self.ready = True
        self.version = version
        self.features = features

    def switch(self, version: int) -> None:
        """Stamp ``version`` from now on (v1 frames have no feature byte)."""
        self.wire_version = version
        self.wire_features = self.features & 0xFF if version >= 2 else 0

    # -- the responder's half (the emitter) ------------------------------------

    def answer(self, offer: HelloMessage, own: Capabilities) \
            -> tuple[HelloAckMessage | None, bool]:
        """``(ack, opened)`` for one offer: the answer to send (None: no
        version overlaps, stay silent) and whether it opened the session.
        A duplicate -- the initiator retries lost offers -- is re-acked
        byte-identically and changes nothing."""
        ack = respond(offer, own)
        opened = ack is not None and not self.ready
        if opened:
            self.agree(ack.version, ack.features)
        return ack, opened

    def follow(self, switch: VersionSwitchMessage, epoch: int) -> str:
        """Apply a VERSION-SWITCH: ``switched``, ``duplicate``, or
        ``stale`` -- from before a reset (another epoch) or above the
        negotiated ceiling, neither of which may flip the session."""
        if (not self.ready or switch.epoch != epoch
                or not 1 <= switch.version <= (self.version or 1)):
            return "stale"
        if switch.version == self.wire_version:
            return "duplicate"
        self.switch(switch.version)
        return "switched"


class Initiator:
    """The consumer's half: one offer, its echo check, the frame gate."""

    def __init__(self, config: NegotiateConfig, session: Session,
                 flow_id: str, threshold: int, bits: int) -> None:
        self.config = config
        self.session = session
        self.offer = config.capabilities.hello(flow_id, threshold=threshold,
                                               bits=bits)
        self.transcript = hello_transcript(self.offer)
        self._pre_switch_version = 1
        #: Until when frames under the pre-switch version are accepted:
        #: ``inf`` while the switch is unconfirmed.
        self._grace_until = -math.inf

    def _downgrade(self, now: float, detail: str, observed: int,
                   expected: int) -> AdversarialSignal:
        return AdversarialSignal(
            time=now, kind=SignalKind.DOWNGRADE, flow_id=self.offer.flow_id,
            detail=detail, observed=observed, expected=expected)

    def unanswered(self, offers_sent: int,
                   now: float) -> AdversarialSignal | None:
        """The retry clock fired with the offer open: past
        ``strip_after`` offers the loss allowance is spent and silence
        is evidence of stripped HELLOs, not of an unlucky datagram."""
        if offers_sent < self.config.strip_after:
            return None
        return self._downgrade(
            now, f"{offers_sent} capability offers unanswered",
            offers_sent, self.config.strip_after)

    def on_hello_ack(self, ack: HelloAckMessage,
                     now: float) -> AdversarialSignal | None:
        """Check the echo; None: session agreed.  A mismatch means the
        responder answered an offer this side never made: someone
        rewrote the HELLO in flight, or forged the answer."""
        caps = self.config.capabilities
        if ack.transcript != self.transcript \
                or not caps.min_version <= ack.version <= caps.max_version:
            return self._downgrade(
                now, "hello-ack transcript does not match the offer sent",
                ack.version, self.offer.max_version)
        self.session.agree(ack.version, ack.features & caps.features)
        return None

    def may_switch(self, version: int) -> bool:
        """Within the negotiated ceiling, and did the peer offer switches?"""
        session = self.session
        return (session.ready and 1 <= version <= session.version
                and bool(session.features & FEATURE_VERSION_SWITCH))

    def switch(self, version: int) -> None:
        """Send under ``version`` from now on; the receive gate reopens."""
        self._pre_switch_version = self.session.wire_version
        self.session.switch(version)
        self._grace_until = math.inf

    def frame_ok(self, version: int, now: float) -> bool:
        """May a quACK frame stamped ``version`` be accepted at ``now``?"""
        if version == self.session.wire_version:
            if self._grace_until == math.inf:
                # First frame under the new version: the emitter has
                # demonstrably adopted the switch.  Stragglers reordered
                # behind it get one grace window from this moment.
                self._grace_until = now + self.config.switch_grace_s
            return True
        # Still propagating, or a reordered in-flight frame from before?
        return version == self._pre_switch_version \
            and now <= self._grace_until
