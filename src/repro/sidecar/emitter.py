"""Receiver-side sidecar state: accumulate identifiers, emit quACKs.

This is the piece that runs wherever packets *arrive* -- on the client
host ("installing a library on the client to generate quACKs",
Section 2.1) or on a proxy's tap (Sections 2.2, 2.3).  It folds every
observed identifier into a cumulative power-sum quACK and, guided by a
:class:`~repro.sidecar.frequency.FrequencyPolicy`, hands out snapshots to
put on the wire.

The accumulator is never reset: cumulativeness is what makes the scheme
"resilient to quACKs that are dropped in transmission" (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sidecar.frequency import FrequencyPolicy, PacketCountFrequency


@dataclass(slots=True)
class EmitterStats:
    observed: int = field(default=0, init=False)
    emitted: int = field(default=0, init=False)
    emitted_bytes: int = field(default=0, init=False)


#: Shared by every emitter built without a policy: it has no mutating
#: method (the retunable ``AdaptiveFrequency`` is always passed in).
DEFAULT_POLICY = PacketCountFrequency(2)


class QuackEmitter:
    """Observes identifiers; produces quACK snapshots per policy.

    ``flow`` names this emitter's flow in the per-flow resource ledger
    (:data:`~repro.sidecar.accounting.FLOW_ACCOUNTS`); while the ledger
    is disarmed the accounting hooks cost one attribute load plus a
    branch per call.

    One emitter exists per tracked flow, so the class is
    ``__slots__``-based for the million-flow regime (ROADMAP item 2).
    ``bank_bytes`` is the accumulator's wire size in whole bytes, fixed
    for the emitter's life: what the ledger and the flow table meter.
    """

    __slots__ = ("quack", "policy", "flow", "stats", "bank_bytes",
                 "_packets_since_emit", "_last_emit")

    def __init__(self, threshold: int, bits: int = 32,
                 policy: FrequencyPolicy | None = None,
                 flow: str = "") -> None:
        self.quack = PowerSumQuack(threshold, bits)
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self.flow = flow
        self.stats = EmitterStats()
        self.bank_bytes = (self.quack.wire_size_bits() + 7) // 8
        self._packets_since_emit = 0
        self._last_emit = 0.0

    def note(self, identifier: int, now: float, *,
             ctx: int | None = None,
             flow: str | None = None) -> bool:
        """Fold one identifier in; returns True when an emission is due.

        This is the observation half of :meth:`observe` without the
        emission: callers that own the emission schedule -- the flow
        table's shared batch timer -- use the returned due flag to mark
        the flow for the next coalesced sweep instead of emitting a
        frame per due packet.

        ``ctx``/``flow`` are purely observational: when the datagram
        carried a trace-context id, the middlebox observation point is
        recorded as a ``sidecar.mb_observe`` lifecycle event labelled
        ``flow``.  Neither influences the power sums, and the ledger is
        always charged to the emitter's own ``self.flow`` (the key
        :meth:`emit` charges), so one bank never splits over two accounts.
        """
        self.quack.insert(identifier)
        if obs.TRACER.enabled and ctx is not None:
            obs.TRACER.emit("sidecar.mb_observe", now,
                            flow=flow if flow is not None else "?", ctx=ctx)
        if FLOW_ACCOUNTS.armed:
            FLOW_ACCOUNTS.on_observe(self.flow, self.bank_bytes)
        self.stats.observed += 1
        self._packets_since_emit += 1
        return self.policy.on_packet(self._packets_since_emit, now,
                                     self._last_emit)

    def observe(self, identifier: int, now: float, *,
                ctx: int | None = None,
                flow: str | None = None) -> PowerSumQuack | None:
        """Fold one identifier in; returns a snapshot if one is due now."""
        if self.note(identifier, now, ctx=ctx, flow=flow):
            return self.emit(now)
        return None

    def emit(self, now: float) -> PowerSumQuack:
        """Unconditionally produce a snapshot (timer-driven emission)."""
        self._packets_since_emit = 0
        self._last_emit = now
        self.stats.emitted += 1
        self.stats.emitted_bytes += self.bank_bytes
        if FLOW_ACCOUNTS.armed:
            FLOW_ACCOUNTS.on_emit(self.flow, self.bank_bytes)
        return self.quack.copy()

    @property
    def pending_packets(self) -> int:
        """Identifiers observed since the last emission."""
        return self._packets_since_emit
