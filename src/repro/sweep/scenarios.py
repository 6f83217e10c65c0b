"""The scenario registry: the one place a scenario name maps to code.

:data:`SCENARIOS` has one :class:`Scenario` row per name.  The sweep
engine runs a row as ``spec -> result dict`` (:func:`run_cell`);
``repro experiment``, ``repro trace``/``profile`` and the SLO runner
look the same rows up to call the keyword entry point directly.  Adding
a scenario is adding a row.

Worker processes import this module by name and call :func:`run_cell`,
so everything here must be picklable and free of module-global mutable
state.  Each entry point is a pure function: the same keywords produce
the same outcome in any process, which is the contract the sweep
engine's determinism guarantee rests on (the one process-wide counter,
packet uids, restarts in :class:`~repro.transport.connection.Transfer`,
which every run that sends packets opens through).

Registered scenarios:

* ``cc-division``, ``ack-reduction``, ``retransmission`` -- the E7-E9
  protocol experiments (Table 1's three sidecar protocols, end to end);
* ``chaos`` -- the fault-injection harness; the cell must carry a
  ``plan`` parameter naming one of :data:`repro.chaos.PLANS` (sweep the
  ``plan`` axis to cover all of them);
* ``scale`` -- the multi-tenant flow table driven at scale: flow-count
  x churn-rate grids measuring admissions, evictions, shedding, and p99
  emission latency under per-tenant budgets.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SweepError


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Scenario:
    """One registry row: a keyword entry point and how to present it.

    ``entry`` and ``to_dict`` are ``module:function`` paths resolved on
    first use, so importing the registry imports no simulator code
    (``repro experiment``'s parser reads it).  The module that defines
    an experiment's entry point also defines its
    ``format_result(outcome) -> str``.
    """

    #: The keyword entry point; a sweep spec's ``base``/``grid`` keys
    #: are its keyword arguments.
    entry: str
    #: Outcome -> JSON-safe dict, the cell result a sweep artifact keeps.
    to_dict: str = "dataclasses:asdict"
    #: The E7-E9 rows only, for ``repro experiment``: the keyword that
    #: switches assistance on (``--no-sidecar`` clears it) and the
    #: experiment's own flags as ``argparse dest -> keyword``.
    assist: str = ""
    flags: Mapping[str, str] = field(default_factory=dict)

    def run(self, **kwargs: Any) -> Any:
        return _resolve(self.entry)(**kwargs)

    def format(self, outcome: Any) -> str:
        module = self.entry.partition(":")[0]
        return _resolve(f"{module}:format_result")(outcome)


SCENARIOS: dict[str, Scenario] = {
    "cc-division": Scenario(
        "repro.sidecar.cc_division:run_cc_division", assist="sidecar"),
    "ack-reduction": Scenario(
        "repro.sidecar.ack_reduction:run_ack_reduction", assist="sidecar",
        flags={"every": "ack_every"}),
    "retransmission": Scenario(
        "repro.sidecar.retransmission:run_retransmission",
        assist="innet_retx",
        flags={"reorder_threshold": "reorder_threshold"}),
    "chaos": Scenario("repro.chaos.harness:run_plan",
                      to_dict="repro.chaos.harness:result_to_dict"),
    "scale": Scenario("repro.sidecar.flowtable:run_scale",
                      to_dict="builtins:dict"),
}

#: The protocol experiments, in the order ``repro experiment`` lists them.
EXPERIMENT_SCENARIOS = tuple(name for name, row in SCENARIOS.items()
                             if row.assist)


def known_scenarios() -> tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def run_cell(scenario: str, params: Mapping[str, Any], seed: int) -> dict:
    """Run one cell's scenario; the workers' sole entry point.

    The derived cell seed is injected unless the spec pins one.
    """
    try:
        row = SCENARIOS[scenario]
    except KeyError:
        raise SweepError(
            f"unknown sweep scenario {scenario!r}; have "
            f"{', '.join(known_scenarios())}")
    kwargs = dict(params)
    kwargs.setdefault("seed", seed)
    return _resolve(row.to_dict)(row.run(**kwargs))
