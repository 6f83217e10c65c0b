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
engine's determinism guarantee rests on (the entry points reset the one
process-wide counter, packet uids, themselves).

Registered scenarios:

* ``cc-division``, ``ack-reduction``, ``retransmission`` -- the E7-E9
  protocol experiments (Table 1's three sidecar protocols, end to end);
* ``chaos`` -- the fault-injection harness; the cell must carry a
  ``plan`` parameter naming one of :data:`repro.chaos.PLANS` (sweep the
  ``plan`` axis to cover all of them);
* ``scale`` -- the multi-tenant flow table driven at scale: flow-count
  x churn-rate grids measuring admissions, evictions, shedding, and p99
  emission latency under per-tenant budgets;
* ``selftest`` -- a deliberately cheap arithmetic scenario with
  injectable failures, used by the engine's own differential tests and
  by scaling demos.  Parameters: ``work`` (payload size), ``sleep_s``
  (simulated task latency), ``fail_attempts`` (raise until the task's
  attempt number reaches this), ``exit_attempts`` (hard-kill the worker
  process until then -- exercises pool breakage).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SweepError


def run_selftest(*, seed: int, attempt: int, **params: Any) -> dict:
    """The engine's built-in scenario: cheap, seeded, failure-injectable."""
    fail_attempts = int(params.get("fail_attempts", 0))
    exit_attempts = int(params.get("exit_attempts", 0))
    if attempt < exit_attempts:
        if multiprocessing.parent_process() is None:
            # Serial mode runs cells in the main process; killing it
            # would take the whole sweep down.  Degrade to an ordinary
            # (retryable) failure instead.
            raise SweepError(
                "selftest: exit_attempts needs worker processes; "
                "run with --workers >= 2")
        # A hard crash: the worker process dies without cleanup, the
        # pool breaks, and the runner must rebuild it.
        os._exit(13)
    if attempt < fail_attempts:
        raise RuntimeError(
            f"selftest: injected failure on attempt {attempt} "
            f"(fails until attempt {fail_attempts})")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    rng = random.Random(seed)
    work = int(params.get("work", 64))
    values = [rng.getrandbits(32) for _ in range(work)]
    return {
        "checksum": sum(values) % (1 << 31),
        "first": values[0] if values else None,
        "work": work,
        "attempt": attempt,
        "echo": {key: params[key] for key in sorted(params)
                 if key not in ("fail_attempts", "exit_attempts")},
    }


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Scenario:
    """One registry row: a keyword entry point and how to present it.

    ``entry`` and ``to_dict`` are ``module:function`` paths resolved on
    first use, so a sweep worker running selftest cells never imports
    the simulator.  The module that defines an experiment's entry point
    also defines its ``format_result(outcome) -> str``.
    """

    #: The keyword entry point; a sweep spec's ``base``/``grid`` keys
    #: are its keyword arguments.
    entry: str
    #: Outcome -> JSON-safe dict, the cell result a sweep artifact keeps.
    to_dict: str = "dataclasses:asdict"
    #: Pass the engine's retry counter as ``attempt`` (selftest's
    #: injected failures key off it).
    retry_aware: bool = False
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
    "chaos": Scenario("repro.chaos:run_plan",
                      to_dict="repro.chaos:result_to_dict"),
    "scale": Scenario("repro.sidecar.flowtable:run_scale",
                      to_dict="builtins:dict"),
    "selftest": Scenario("repro.sweep.scenarios:run_selftest",
                         to_dict="builtins:dict", retry_aware=True),
}

#: The protocol experiments, in the order ``repro experiment`` lists them.
EXPERIMENT_SCENARIOS = tuple(name for name, row in SCENARIOS.items()
                             if row.assist)


def known_scenarios() -> tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def run_cell(scenario: str, params: Mapping[str, Any], seed: int,
             attempt: int = 0) -> dict:
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
    if row.retry_aware:
        kwargs["attempt"] = attempt
    return _resolve(row.to_dict)(row.run(**kwargs))
