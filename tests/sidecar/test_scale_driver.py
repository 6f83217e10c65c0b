"""``run_scale``'s identifiers are ``randrange(1, 1 << bits)`` draws.

The driver inlines ``randrange``'s rejection loop over ``getrandbits``
to make one call per identifier; that must not change a single draw,
or every pinned ``run_scale`` outcome and sweep digest would move.
"""

from __future__ import annotations

import random

import pytest

from repro.sidecar import flowtable
from repro.sidecar.flowtable import FlowTable, run_scale


class _Bank:
    """Stands in for the emitter where 1-bit identifiers have no prime
    field: only the draws are under test."""

    bank_bytes = 1

    def __init__(self, *args, **kwargs) -> None:
        self.flow = ""


@pytest.mark.parametrize("bits", [1, 8, 32, 64])
def test_identifiers_are_randrange_draws(monkeypatch, bits):
    drawn = []
    if bits == 1:
        monkeypatch.setattr(flowtable, "QuackEmitter", _Bank)
    monkeypatch.setattr(FlowTable, "observe",
                        lambda table, record, identifier:
                        drawn.append(identifier))
    run_scale(flows=50, packets_per_flow=6, churn_rate=0.5, bits=bits,
              seed=bits)
    rng = random.Random(bits)
    assert len(drawn) == 300
    assert drawn == [rng.randrange(1, 1 << bits) for _ in drawn]
