"""Trace-driven quACK sessions: arrival processes, loss patterns, outcomes.

Section 3.2: "Receivers select t based on the communication frequency,
and the estimated bandwidth usage and loss rate on the link."  This
module makes that selection quantitative.  It synthesizes constant-rate
packet traces under a loss process (Bernoulli, Gilbert-Elliott), then
drives an emitter/consumer session over the trace *without* the full
simulator, reporting whether the threshold ever overflowed and what was
decoded.

The headline use is :func:`survival_probability`: for a given loss
process and quACK cadence, how often does a session with threshold ``t``
survive a long trace without needing a reset?  (Bursty loss needs far
more headroom than its average rate suggests -- the experiment behind
`benchmarks/test_threshold_headroom.py`.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.workloads import PAPER_B
from repro.ids.identifiers import IdentifierFactory
from repro.netsim.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.netsim.packet import Packet
from repro.quack.base import DecodeStatus
from repro.sidecar.consumer import QuackConsumer
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.frequency import PacketCountFrequency

#: Arrival rate of every synthesized trace.
RATE_PPS = 1000.0


@dataclass(frozen=True)
class PacketTrace:
    """A synthesized unidirectional packet timeline."""

    times: tuple[float, ...]
    dropped: tuple[bool, ...]
    identifiers: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def loss_count(self) -> int:
        return sum(self.dropped)

    @property
    def loss_rate(self) -> float:
        return self.loss_count / self.n if self.n else 0.0


def cbr_arrivals(n: int, rate_pps: float) -> list[float]:
    """Constant bit rate: one packet every 1/rate seconds."""
    if rate_pps <= 0:
        raise ValueError(f"rate must be positive, got {rate_pps}")
    gap = 1.0 / rate_pps
    return [i * gap for i in range(n)]


def synthesize_trace(n: int, loss: LossModel | None = None,
                     seed: int = 0) -> PacketTrace:
    """Build a trace: constant-rate arrivals x loss process x identifiers."""
    rng = random.Random(seed)
    times = cbr_arrivals(n, RATE_PPS)
    model = loss if loss is not None \
        else BernoulliLoss(0.0, random.Random(rng.random()))
    probe = Packet(src="t", dst="t", size_bytes=1500)
    dropped = tuple(model.should_drop(probe) for _ in range(n))
    factory = IdentifierFactory(
        rng.getrandbits(128).to_bytes(16, "big"), bits=PAPER_B)
    identifiers = tuple(factory.identifier(i) for i in range(n))
    return PacketTrace(times=tuple(times), dropped=dropped,
                       identifiers=identifiers)


@dataclass
class SessionOutcome:
    """What happened when a quACK session consumed a trace."""

    quacks: int = field(init=False, default=0)
    decode_failures: int = field(init=False, default=0)
    threshold_exceeded: bool = field(init=False, default=False)
    declared_lost: int = field(init=False, default=0)
    false_losses: int = field(init=False, default=0)
    confirmed: int = field(init=False, default=0)
    survived: bool = field(init=False, default=True)
    max_outstanding: int = field(init=False, default=0)


def run_session(trace: PacketTrace, threshold: int,
                quack_every: int = 32) -> SessionOutcome:
    """Drive one emitter/consumer pair over a trace (no simulator).

    The sender logs every packet at its timestamp; the receiver observes
    the survivors; a quACK is decoded every ``quack_every`` *arrivals*.
    A decode failure of any kind marks the session as not survived
    (a real deployment would reset; we measure how often that happens).
    """
    consumer = QuackConsumer(threshold, PAPER_B)
    emitter = QuackEmitter(threshold, PAPER_B,
                           policy=PacketCountFrequency(quack_every))
    outcome = SessionOutcome()
    truly_dropped = set()
    for index in range(trace.n):
        identifier = trace.identifiers[index]
        now = trace.times[index]
        consumer.record_send(identifier, index, now)
        outcome.max_outstanding = max(outcome.max_outstanding,
                                      consumer.outstanding)
        if trace.dropped[index]:
            truly_dropped.add(index)
            continue
        snapshot = emitter.observe(identifier, now)
        if snapshot is None:
            continue
        outcome.quacks += 1
        feedback = consumer.on_quack(snapshot, now)
        if not feedback.ok:
            outcome.decode_failures += 1
            outcome.survived = False
            # With the Section 3.3 truncation, an overflow surfaces as an
            # inconsistent decode (truncated "in transit" packets were
            # really lost, so the receiver's sums disagree); flag any
            # failure while more than t packets were outstanding.
            if (feedback.status is DecodeStatus.THRESHOLD_EXCEEDED
                    or feedback.num_missing > threshold
                    or consumer.outstanding > threshold):
                outcome.threshold_exceeded = True
            continue
        outcome.confirmed += len(feedback.received)
        for meta in feedback.lost:
            outcome.declared_lost += 1
            if meta not in truly_dropped:
                outcome.false_losses += 1
    return outcome


def survival_probability(threshold: int, loss: float, burstiness: str,
                         trials: int = 20, n: int = 4000) -> float:
    """P(session survives an n-packet trace) for a threshold choice.

    ``burstiness`` selects the loss process at (approximately) the same
    average rate: ``"random"`` is Bernoulli(loss); ``"bursty"`` is a
    Gilbert-Elliott channel with 50%-lossy bad states tuned to the same
    steady-state rate.  Trial ``i`` is seeded with ``i``; each session
    quACKs at :func:`run_session`'s default cadence.
    """
    survived = 0
    for trial in range(trials):
        rng = random.Random(trial)
        if burstiness == "random":
            model: LossModel = BernoulliLoss(loss, rng)
        elif burstiness == "bursty":
            # pi_bad * 0.5 = loss  =>  p_gb/(p_gb+p_bg) = 2*loss.
            p_bg = 0.25
            pi_bad = min(2 * loss, 0.99)
            p_gb = p_bg * pi_bad / (1 - pi_bad)
            model = GilbertElliottLoss(p_gb, p_bg, loss_good=0.0,
                                       loss_bad=0.5, rng=rng)
        else:
            raise ValueError(f"unknown burstiness {burstiness!r}")
        trace = synthesize_trace(n, loss=model, seed=trial)
        outcome = run_session(trace, threshold)
        survived += outcome.survived
    return survived / trials
