"""On-path adversaries for the sidecar channel.

The injectors in :mod:`repro.netsim.faults` model a *faulty* network;
these model a *malicious* one.  The distinction matters because the
sidecar wire formats carry CRC-32 -- an integrity check against channel
noise, not authentication -- so an on-path adversary can rewrite a
frame's lies and fix the checksum, producing datagrams that parse
cleanly and must be caught by plausibility, not by parsing
(:mod:`repro.sidecar.defense`).  Every adversary here therefore emits
*checksum-valid* forgeries; none of its tampering may ever be counted
as wire corruption.

Four adversaries, one per attack family of the threat model:

* :class:`LyingCountAdversary` -- inflates the snapshot's cumulative
  count: "I received more than I did", the window-inflation attack.
* :class:`ForgedPowerSumAdversary` -- keeps the count honest but
  perturbs the power sums: forged loss evidence aimed at spurious
  retransmission/cwnd damage.
* :class:`ReplayAdversary` -- captures one early snapshot and re-sends
  it forever (every ``stride``-th datagram, so the stream still shows
  forward progress and naive staleness checks stay quiet).
* :class:`EquivocationAdversary` -- maintains its *own* accumulator
  over transformed packet identifiers and answers with snapshots of
  that: internally consistent evidence about a session that is not this
  one.

All of them subclass :class:`~repro.netsim.faults.FaultInjector` and
carry ``adversarial = True``, which the chaos harness uses to keep
tampering out of the corruption ledger (a forgery is *designed* not to
be classifiable as corruption) and to assert the defense invariants:
the transfer still completes at no less than unassisted-baseline
goodput, and the lying sidecar lands in QUARANTINED.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import WireFormatError
from repro.netsim.faults import FaultDecision, FaultInjector
from repro.netsim.packet import Packet, PacketKind
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.protocol import HelloMessage, QuackMessage

#: The quACK liars let the session establish, then lie for good.
LIE_FROM_S = 0.25


def _reframe(quack: PowerSumQuack) -> bytes:
    """Serialize a (tampered) accumulator as a checksum-valid frame."""
    return wire.encode(quack, include_count=True, include_checksum=True)


def _forge(packet: Packet, message: QuackMessage, frame: bytes) -> Packet:
    """Rebuild the datagram around a forged frame (size included)."""
    overhead = packet.size_bytes - len(message.frame)
    forged = dataclasses.replace(message, frame=frame)
    return packet.with_payload(forged, size_bytes=overhead + len(frame))


class _QuackAdversary(FaultInjector):
    """Base: start gating, frame parsing, and the ``adversarial`` mark."""

    #: The chaos harness separates tampering from corruption on this.
    adversarial = True

    def __init__(self) -> None:
        super().__init__(kinds={PacketKind.QUACK})

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if now < LIE_FROM_S:
            return FaultDecision.none()
        message = packet.payload
        if not isinstance(message, QuackMessage):
            return FaultDecision.none()
        try:
            quack = message.quack()
        except (WireFormatError, TypeError):
            return FaultDecision.none()  # already mangled by someone else
        frame = self._forged_frame(message, quack)
        if frame is None:
            return FaultDecision.none()
        return FaultDecision(replacement=_forge(packet, message, frame))

    def _forged_frame(self, message: QuackMessage,
                      quack: PowerSumQuack) -> bytes | None:
        """The lie to send in place of ``message`` (None: let it pass)."""
        raise NotImplementedError


class LyingCountAdversary(_QuackAdversary):
    """Inflate the cumulative count: claim packets that never arrived.

    Depending on how the inflation lands against the sender's in-flight
    window, the consumer sees either a count ahead of everything it ever
    sent (COUNT_AHEAD) or a checksum-valid snapshot whose sums cannot
    decode against the claimed count (FORGED_EVIDENCE).  Both are
    quarantine signals; neither may move the window.
    """

    def __init__(self, inflation: int) -> None:
        super().__init__()
        if inflation < 1:
            raise ValueError(f"inflation must be >= 1, got {inflation}")
        self.inflation = inflation

    def _forged_frame(self, message: QuackMessage,
                      quack: PowerSumQuack) -> bytes:
        # The same private-field surgery the wire decoder itself uses:
        # sums stay honest, the count lies.
        quack._count = (quack.count + self.inflation) \
            % (1 << quack.count_bits)
        return _reframe(quack)


class ForgedPowerSumAdversary(_QuackAdversary):
    """Keep the count honest, forge the power sums: fake loss evidence.

    The count gates all pass -- monotone, never ahead of the sent log --
    so the forgery reaches the decoder, where the sums fail to split
    over the sender's log: FORGED_EVIDENCE.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def _forged_frame(self, message: QuackMessage,
                      quack: PowerSumQuack) -> bytes:
        modulus = quack.field.modulus
        quack._sums = [(value + self._rng.randrange(1, modulus)) % modulus
                       for value in quack.power_sums]
        return _reframe(quack)


class ReplayAdversary(_QuackAdversary):
    """Capture one early snapshot, replay it in place of later ones.

    Only every ``stride``-th datagram is replaced: the interleaved
    honest snapshots keep the consumer's high-water count advancing, so
    the replays regress further and further behind it -- past the
    benign-reordering band and into COUNT_REGRESSION territory -- while
    a naive freshness check would see a perfectly live channel.
    """

    def __init__(self, stride: int) -> None:
        super().__init__()
        if stride < 2:
            raise ValueError(f"stride must be >= 2, got {stride}")
        self.stride = stride
        self._captured: bytes | None = None
        self._captured_epoch: int | None = None
        self._seen = 0

    def _forged_frame(self, message: QuackMessage,
                      quack: PowerSumQuack) -> bytes | None:
        if self._captured is None or self._captured_epoch != message.epoch:
            self._captured = message.frame
            self._captured_epoch = message.epoch
            self._seen = 0
            return None
        self._seen += 1
        if self._seen % self.stride:
            return None  # pass the honest snapshot
        return self._captured


class EquivocationAdversary(FaultInjector):
    """Answer with snapshots of a *different* session's accumulator.

    The adversary watches the DATA stream toward the client and folds a
    transformed copy of every identifier (``id XOR mask``) into its own
    power-sum accumulator, then substitutes snapshots of that state for
    the emitter's.  The result is the strongest lie the wire format
    allows: right cadence, right epoch, plausible count, internally
    consistent sums -- but evidence about packets that were never sent.
    The decode stage is the only gate that can catch it (the roots match
    nothing in the sender's log: FORGED_EVIDENCE).

    Install the same instance in *both* directions of the sidecar hop:
    it observes DATA toward the client and tampers QUACK toward the
    server.
    """

    adversarial = True

    #: The other session's identifiers: this one's, XORed with a mask.
    MASK = 0x5A5A5A5A

    def __init__(self, threshold: int) -> None:
        super().__init__(kinds={PacketKind.DATA, PacketKind.QUACK})
        # Same widths as the emitter's accumulator (the quACK defaults).
        self._shadow = PowerSumQuack(threshold)

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if packet.kind is PacketKind.DATA:
            if packet.identifier is not None:
                self._shadow.insert(
                    (packet.identifier ^ self.MASK)
                    % (1 << self._shadow.bits))
            return FaultDecision.none()
        if now < LIE_FROM_S:
            return FaultDecision.none()
        message = packet.payload
        if not isinstance(message, QuackMessage):
            return FaultDecision.none()
        return FaultDecision(replacement=_forge(
            packet, message, _reframe(self._shadow.copy())))


class HelloStripAdversary(FaultInjector):
    """Strip capability offers off the wire: the classic downgrade attack.

    Secure Middlebox-Assisted QUIC's threat model: an on-path attacker
    who does not want the endpoints to enjoy (versioned, defended)
    assistance simply deletes the negotiation traffic and hopes they
    fall back silently.  Here the fallback is never silent -- the
    initiator retries its offer and, past the loss allowance, ledgers
    every further unanswered HELLO as a DOWNGRADE signal until the
    channel is quarantined.  The transport was running end-to-end the
    whole time (assistance never starts before the handshake), so the
    attacker gains nothing and the attack is on the record.

    Active from time zero: negotiation happens before anything else, so
    an adversary that sleeps through it has already lost.
    """

    adversarial = True

    def __init__(self) -> None:
        super().__init__(kinds={PacketKind.CONTROL})

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if not isinstance(packet.payload, HelloMessage):
            return FaultDecision.none()
        return FaultDecision(drop=True)


class HelloRewriteAdversary(FaultInjector):
    """Rewrite capability offers in flight to pin the session at v1.

    The subtler downgrade: instead of deleting the offer, clamp its
    version range and strip its feature bits so the responder honestly
    negotiates the weakest protocol.  The transcript hash is the
    countermeasure -- the responder hashes the offer *as received*, the
    initiator compares against the offer *as sent*, and the rewrite is
    detected on the first HELLO-ACK, ledgered as DOWNGRADE, and
    quarantined after enough repeats.
    """

    adversarial = True

    PIN_VERSION = 1

    def __init__(self) -> None:
        super().__init__(kinds={PacketKind.CONTROL})

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        hello = packet.payload
        if not isinstance(hello, HelloMessage) \
                or hello.max_version <= self.PIN_VERSION:
            return FaultDecision.none()
        rewritten = dataclasses.replace(
            hello,
            min_version=min(hello.min_version, self.PIN_VERSION),
            max_version=self.PIN_VERSION, features=0)
        # Same layout, same length: the rewrite is size-preserving, as a
        # real on-path rewriter (who must fix only the CRC) would be.
        return FaultDecision(
            replacement=packet.with_payload(rewritten))
