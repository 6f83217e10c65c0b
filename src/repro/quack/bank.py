"""A vectorized bank of quACKs for proxies serving many flows.

The paper's Section 5 asks "How do we further optimize the algorithm and
implementation of the quACK towards nearly-zero overhead quACKing?"  A
proxy on a busy link maintains one accumulator per flow; updating them
one Python call at a time costs ~t multiplications of interpreter
overhead per packet.  :class:`QuackBank` keeps *all* flows' power sums
in one ``(flows, t)`` numpy matrix and folds in batches of (flow, id)
observations with O(t) vectorized passes over the whole batch --
amortizing the interpreter overhead across flows and packets.

Semantics are identical to per-flow
:class:`~repro.quack.power_sum.PowerSumQuack` instances (property-tested
in ``tests/quack/test_bank.py``); snapshots inter-operate with the
normal decoder and wire format.  Requires a vectorizable modulus
(``bits <= 32``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arith.field import field_for_bits
from repro.errors import ArithmeticDomainError
from repro.quack.power_sum import DEFAULT_COUNT_BITS, PowerSumQuack


class QuackBank:
    """Power-sum accumulators for many flows, updated in batch."""

    def __init__(self, num_flows: int, threshold: int, bits: int = 32,
                 count_bits: int = DEFAULT_COUNT_BITS) -> None:
        if num_flows < 1:
            raise ArithmeticDomainError(f"need >= 1 flow, got {num_flows}")
        if threshold < 1:
            raise ArithmeticDomainError(f"threshold must be >= 1, got {threshold}")
        if bits > 32:
            raise ArithmeticDomainError(
                "QuackBank requires a vectorizable modulus (bits <= 32); "
                "use per-flow PowerSumQuack for 64-bit identifiers"
            )
        self.field = field_for_bits(bits)
        self.num_flows = num_flows
        self.threshold = threshold
        self.bits = bits
        self.count_bits = count_bits
        self._sums = np.zeros((num_flows, threshold), dtype=np.uint64)
        self._counts = np.zeros(num_flows, dtype=np.uint64)

    # -- updates -----------------------------------------------------------

    def observe(self, flow: int, identifier: int) -> None:
        """Fold a single observation (the unbatched path).

        A direct scalar update: the batched path costs two 1-element
        array allocations plus ``t`` vectorized passes of setup per
        call, which at batch size one is all overhead.  Plain Python
        ints over the flow's row are an order of magnitude cheaper per
        packet (``benchmarks/test_quack_bank.py``); the two paths are pinned
        to each other by a differential test in
        ``tests/quack/test_bank.py``.
        """
        if flow < 0 or flow >= self.num_flows:
            raise ArithmeticDomainError(
                f"flow index out of range [0, {self.num_flows})")
        p = self.field.modulus
        x = int(identifier) % p
        power = x
        row = self._sums[flow]
        for k in range(self.threshold):
            row[k] = (int(row[k]) + power) % p
            power = (power * x) % p
        self._counts[flow] = (int(self._counts[flow]) + 1) \
            & ((1 << self.count_bits) - 1)

    def observe_batch(self, flows: Sequence[int] | np.ndarray,
                      identifiers: Sequence[int] | np.ndarray) -> None:
        """Fold a batch of (flow, identifier) observations.

        Cost is O(t) vectorized passes over the batch regardless of how
        many distinct flows it touches.  Duplicate flows in one batch are
        handled correctly (scatter-add).
        """
        flow_idx = np.asarray(flows, dtype=np.int64)
        ids = np.asarray(identifiers, dtype=np.uint64)
        if flow_idx.shape != ids.shape:
            raise ArithmeticDomainError(
                f"flows {flow_idx.shape} and identifiers {ids.shape} differ")
        if flow_idx.size == 0:
            return
        if flow_idx.min() < 0 or flow_idx.max() >= self.num_flows:
            raise ArithmeticDomainError(
                f"flow index out of range [0, {self.num_flows})")
        p = np.uint64(self.field.modulus)
        x = ids % p
        power = x.copy()
        for k in range(self.threshold):
            # Scatter-add the k-th powers into each flow's k-th sum.
            contributions = np.zeros(self.num_flows, dtype=np.uint64)
            np.add.at(contributions, flow_idx, power)
            # np.add.at may wrap mod 2**64 only if a single batch exceeds
            # ~2**32 same-flow entries; batches are far smaller.
            self._sums[:, k] = (self._sums[:, k] + contributions) % p
            power = (power * x) % p
        count_inc = np.zeros(self.num_flows, dtype=np.uint64)
        np.add.at(count_inc, flow_idx, np.uint64(1))
        mask = np.uint64((1 << self.count_bits) - 1)
        self._counts = (self._counts + count_inc) & mask

    # -- reads -----------------------------------------------------------------

    def count(self, flow: int) -> int:
        return int(self._counts[flow])

    def power_sums(self, flow: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self._sums[flow])

    def snapshot(self, flow: int) -> PowerSumQuack:
        """Materialize one flow's state as a normal PowerSumQuack."""
        quack = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                              field=self.field)
        quack._sums = [int(v) for v in self._sums[flow]]
        quack._count = int(self._counts[flow])
        return quack

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:
        return (f"QuackBank({self.num_flows} flows, t={self.threshold}, "
                f"b={self.bits})")
