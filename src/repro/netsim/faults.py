"""Composable, seeded, schedulable fault injectors for links.

Loss models (:mod:`repro.netsim.loss`) describe a channel's *steady*
behavior; fault injectors describe its *pathologies* -- the scripted,
repeatable adverse events a chaos harness needs: blackout windows, bit
corruption, datagram duplication, scheduled loss bursts, and delay
spikes.  An injector attaches to a :class:`~repro.netsim.link.Link`
(``faults=`` at construction, or per-direction ``faults_up`` /
``faults_down`` on a :class:`~repro.netsim.topology.HopSpec`) and is
consulted once per packet, after the loss model, as of the instant the
packet finishes serialisation (``now`` is the departure time; the link
asks when the packet would arrive):

* the injector returns a :class:`FaultDecision`;
* the link drops, delays, transforms, and/or duplicates accordingly,
  counting what happened in ``LinkStats.dropped_fault`` /
  ``duplicated_fault`` / ``corrupted_fault``.

Injectors are deliberately payload-agnostic: this module knows nothing
about the sidecar protocol.  :class:`Corruption` is handed the
``corrupter`` that builds each mangled packet (the chaos package supplies
the sidecar-aware one, on :func:`flip_frame_bits`).  Randomized injectors
take a seed, so every chaos scenario replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.errors import SimulationError
from repro.netsim.packet import Packet, PacketKind

#: A window of simulated time, ``(start_s, end_s)``, half-open.
Window = tuple[float, float]


def _check_windows(windows: Sequence[Window]) -> tuple[Window, ...]:
    checked = []
    for start, end in windows:
        if end <= start or start < 0:
            raise SimulationError(f"bad fault window ({start}, {end})")
        checked.append((float(start), float(end)))
    return tuple(checked)


def in_window(windows: Sequence[Window], now: float) -> bool:
    return any(start <= now < end for start, end in windows)


@dataclass(slots=True)
class FaultDecision:
    """What should happen to one packet.

    ``copies`` is the *total* number of deliveries: 1 is normal, 2 means
    the datagram was duplicated, 0 is equivalent to ``drop``.

    Allocated on the per-packet fast path, hence ``slots=True``.
    """

    drop: bool = False
    copies: int = 1
    extra_delay: float = 0.0
    replacement: Packet | None = None

    #: The no-op decision, shared (it is never mutated).
    @classmethod
    def none(cls) -> "FaultDecision":
        return _NO_FAULT


_NO_FAULT = FaultDecision()


@dataclass(slots=True)
class FaultInjectorStats:
    considered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    corrupted: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)
    delayed: int = field(default=0, init=False)


class FaultInjector:
    """Base injector: kind filtering plus per-injector statistics.

    Subclasses implement :meth:`_decide`; the base class handles the
    ``kinds`` filter (None = all traffic) and bookkeeping; ``name``
    (the class's) labels the injector in traces and chaos reports.
    """

    def __init__(self, kinds: Iterable[PacketKind] | None = None) -> None:
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.name = type(self).__name__
        self.stats = FaultInjectorStats()

    def on_transmit(self, packet: Packet, now: float) -> FaultDecision:
        if self.kinds is not None and packet.kind not in self.kinds:
            return FaultDecision.none()
        self.stats.considered += 1
        decision = self._decide(packet, now)
        effects = []
        if decision.drop or decision.copies == 0:
            self.stats.dropped += 1
            effects.append("drop")
        if decision.replacement is not None:
            self.stats.corrupted += 1
            effects.append("corrupt")
        if decision.copies > 1:
            self.stats.duplicated += 1
            effects.append("duplicate")
        if decision.extra_delay > 0:
            self.stats.delayed += 1
            effects.append("delay")
        if effects and obs.TRACER.enabled:
            for effect in effects:
                obs.TRACER.emit("fault.activate", now, injector=self.name,
                                kind=packet.kind.value, effect=effect)
        return decision

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        raise NotImplementedError

    def __repr__(self) -> str:
        kinds = "all" if self.kinds is None \
            else "/".join(sorted(k.value for k in self.kinds))
        return f"{self.name}({kinds})"


#: The sidecar channel: quACK snapshots plus reset/config handshakes.
SIDECAR_KINDS = frozenset({PacketKind.QUACK, PacketKind.CONTROL})


class Blackout(FaultInjector):
    """Drop everything (of the filtered kinds) inside the given windows.

    ``Blackout([(2.0, 4.0)], kinds=SIDECAR_KINDS)`` models a sidecar
    channel outage -- PEP boxes reboot, UDP gets ACL'd away -- while the
    base transport keeps flowing.
    """

    def __init__(self, windows: Sequence[Window],
                 kinds: Iterable[PacketKind] | None = None) -> None:
        super().__init__(kinds=kinds)
        self.windows = _check_windows(windows)

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if in_window(self.windows, now):
            return FaultDecision(drop=True)
        return FaultDecision.none()


def flip_frame_bits(frame: bytes, rng: random.Random) -> bytes:
    """Flip 1..3 random bits of ``frame`` (never a no-op)."""
    if not frame:
        return frame
    data = bytearray(frame)
    flips = min(rng.randint(1, 3), len(data) * 8)
    # Distinct positions: an even number of flips of the same bit would
    # silently undo itself.
    for position in rng.sample(range(len(data) * 8), flips):
        data[position // 8] ^= 1 << (position % 8)
    return bytes(data)


class Corruption(FaultInjector):
    """Corrupt a fraction of packets (seeded, replayable).

    ``corrupter(packet, rng)`` builds the corrupted replacement, or
    returns None to leave the packet intact.
    """

    def __init__(self, rate: float,
                 corrupter: Callable[[Packet, random.Random], Packet | None],
                 seed: int = 0,
                 kinds: Iterable[PacketKind] | None = None) -> None:
        if not 0 <= rate <= 1:
            raise SimulationError(f"corruption rate must be in [0,1], got {rate}")
        super().__init__(kinds=kinds)
        self.rate = rate
        self.rng = random.Random(seed)
        self.corrupter = corrupter

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if self.rng.random() >= self.rate:
            return FaultDecision.none()
        replacement = self.corrupter(packet, self.rng)
        if replacement is None:
            return FaultDecision.none()
        return FaultDecision(replacement=replacement)


class Duplication(FaultInjector):
    """Deliver a fraction of packets twice (seeded)."""

    def __init__(self, rate: float, seed: int = 0,
                 kinds: Iterable[PacketKind] | None = None) -> None:
        if not 0 <= rate <= 1:
            raise SimulationError(f"duplication rate must be in [0,1], got {rate}")
        super().__init__(kinds=kinds)
        self.rate = rate
        self.rng = random.Random(seed)

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if self.rng.random() < self.rate:
            return FaultDecision(copies=2)
        return FaultDecision.none()


class BurstLoss(FaultInjector):
    """Scheduled loss bursts: inside each window, drop at ``rate``.

    Unlike :class:`~repro.netsim.loss.GilbertElliottLoss` (a stochastic
    *channel*), this is a scripted *event*: the burst happens exactly
    when the scenario says, every run.
    """

    def __init__(self, windows: Sequence[Window], rate: float = 1.0,
                 seed: int = 0,
                 kinds: Iterable[PacketKind] | None = None) -> None:
        if not 0 < rate <= 1:
            raise SimulationError(f"burst loss rate must be in (0,1], got {rate}")
        super().__init__(kinds=kinds)
        self.windows = _check_windows(windows)
        self.rate = rate
        self.rng = random.Random(seed)

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if in_window(self.windows, now) and self.rng.random() < self.rate:
            return FaultDecision(drop=True)
        return FaultDecision.none()


class DelaySpike(FaultInjector):
    """Add ``extra_delay_s`` of propagation inside the given windows.

    Models bufferbloat episodes or a rerouting event.  Note the extra
    delay can reorder packets across a window edge, exactly as a real
    spike does.
    """

    def __init__(self, windows: Sequence[Window], extra_delay_s: float,
                 kinds: Iterable[PacketKind] | None = None) -> None:
        if extra_delay_s <= 0:
            raise SimulationError(
                f"delay spike must be positive, got {extra_delay_s}")
        super().__init__(kinds=kinds)
        self.windows = _check_windows(windows)
        self.extra_delay_s = extra_delay_s

    def _decide(self, packet: Packet, now: float) -> FaultDecision:
        if in_window(self.windows, now):
            return FaultDecision(extra_delay=self.extra_delay_s)
        return FaultDecision.none()
