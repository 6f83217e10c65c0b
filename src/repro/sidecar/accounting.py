"""Per-flow middlebox resource accounting (bank bytes, frames, bytes).

The multi-tenant middlebox milestone (ROADMAP item 2) needs per-tenant
memory budgets and eviction; before budgets can be *enforced* they must
be *measured*.  This module is the measurement half: a process-wide
ledger of what each flow's sidecar state costs --

* ``observed``        -- identifiers folded into the flow's bank;
* ``frames_emitted``  -- quACK frames the flow has put on the wire;
* ``bytes_emitted``   -- cumulative wire bytes of those frames;
* ``bank_bytes``      -- resident size of the flow's power-sum bank
  (threshold x field words + counter), i.e. the memory a budget would
  meter.

The ledger follows the observability switchboard discipline: the
singleton :data:`FLOW_ACCOUNTS` is **disarmed by default** and each
hook site costs one attribute load plus a branch while disarmed
(``benchmarks/test_obs_overhead.py`` pins the same guarantee for the
tracer's guard).  A traced run (``repro trace``) arms it and
prints the per-flow table in the report's time section.
"""

from __future__ import annotations


class FlowAccount:
    """Accumulated resource usage of one flow."""

    __slots__ = ("observed", "frames_emitted", "bytes_emitted", "bank_bytes")

    def __init__(self) -> None:
        self.observed = 0
        self.frames_emitted = 0
        self.bytes_emitted = 0
        self.bank_bytes = 0

    def to_dict(self) -> dict:
        return {"observed": self.observed,
                "frames_emitted": self.frames_emitted,
                "bytes_emitted": self.bytes_emitted,
                "bank_bytes": self.bank_bytes}


class FlowAccounts:
    """Process-wide flow ledger (disarmed until :meth:`arm`)."""

    __slots__ = ("armed", "_flows", "evicted_flows")

    def __init__(self) -> None:
        self.armed = False
        self._flows: dict[str, FlowAccount] = {}
        self.evicted_flows = 0

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        self._flows = {}
        self.evicted_flows = 0

    # -- hook sites (call only behind an ``if FLOW_ACCOUNTS.armed``) ------

    def on_observe(self, flow: str, bank_bytes: int) -> None:
        """One identifier folded into ``flow``'s bank."""
        account = self._flows.get(flow)
        if account is None:
            account = self._flows[flow] = FlowAccount()
        account.observed += 1
        account.bank_bytes = bank_bytes

    def on_emit(self, flow: str, frame_bytes: int) -> None:
        """One quACK frame emitted for ``flow``."""
        account = self._flows.get(flow)
        if account is None:
            account = self._flows[flow] = FlowAccount()
        account.frames_emitted += 1
        account.bytes_emitted += frame_bytes

    def forget(self, flow: str) -> None:
        """Drop ``flow``'s ledger entry (flow teardown or eviction).

        Without this the ledger grows unboundedly across long sweeps:
        every flow ever observed stays resident forever.  Teardown and
        eviction paths call ``forget`` so ``total_bank_bytes`` tracks
        the *currently resident* banks, which is what a memory budget
        meters.  Forgetting an unknown flow is a no-op (the ledger may
        be disarmed for part of a flow's life).
        """
        if self._flows.pop(flow, None) is not None:
            self.evicted_flows += 1

    # -- read side --------------------------------------------------------

    @property
    def flows(self) -> int:
        return len(self._flows)

    def total_bank_bytes(self) -> int:
        """Resident bank memory across every tracked flow."""
        return sum(account.bank_bytes for account in self._flows.values())

    def snapshot(self) -> dict:
        """JSON-safe ledger: what a traced run keeps of the table."""
        return {
            "kind": "flow-accounts",
            "schema": 1,
            "total_bank_bytes": self.total_bank_bytes(),
            "evicted_flows": self.evicted_flows,
            "flows": {flow: account.to_dict()
                      for flow, account in sorted(self._flows.items())},
        }


#: The process-wide ledger every emitter reports into when armed.
FLOW_ACCOUNTS = FlowAccounts()
