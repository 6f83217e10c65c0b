"""Chaos harness: fault-injection scenarios for the sidecar stack.

The netsim layer provides the generic injectors
(:mod:`repro.netsim.faults`); this package adds the sidecar-aware pieces
(:mod:`repro.chaos.injectors`) and the scenario runner with invariant
checks (:mod:`repro.chaos.harness`).  Quick start::

    from repro.chaos import run_plan
    result = run_plan("blackout", seed=1)
    assert result.ok, result.violations()

Beyond faults, :mod:`repro.chaos.adversary` supplies on-path
*adversaries* -- checksum-valid liars the plausibility defense
(:mod:`repro.sidecar.defense`) must catch; the plans marked
adversarial run them under the defense invariants.

:mod:`repro.chaos.overload` attacks *capacity* instead: background
tenants flood the shared flow table of
:mod:`repro.sidecar.flowtable` with admissions, churn, and memory
pressure, checking that overload only ever removes assistance --
goodput >= unassisted, zero spurious retransmits.  Every plan is one
row of :data:`PLANS` (``python -m repro chaos --list-plans``).

Presentation belongs to the caller: :func:`format_result` renders a
result as text, and the ``python -m repro chaos`` subcommand is the one
place that prints it.  Library code returns data and stays silent.
"""

from repro.chaos.adversary import (
    EquivocationAdversary,
    ForgedPowerSumAdversary,
    LyingCountAdversary,
    ReplayAdversary,
)
from repro.chaos.harness import (
    DEFAULT_TOTAL,
    PLANS,
    ChaosPlan,
    ChaosResult,
    ChaosSetup,
    format_result,
    result_to_dict,
    run_chaos_transfer,
    run_plan,
    unassisted_baseline,
)
from repro.chaos.injectors import MiddleboxCrash, sidecar_corrupter
from repro.chaos.overload import (
    BackgroundLoad,
    ChurnStorm,
    MemoryClamp,
    OverloadSpec,
    TenantBurst,
)

__all__ = [
    "ChaosPlan",
    "ChaosSetup",
    "ChaosResult",
    "run_chaos_transfer",
    "run_plan",
    "result_to_dict",
    "format_result",
    "unassisted_baseline",
    "PLANS",
    "DEFAULT_TOTAL",
    "MiddleboxCrash",
    "sidecar_corrupter",
    "LyingCountAdversary",
    "ForgedPowerSumAdversary",
    "ReplayAdversary",
    "EquivocationAdversary",
    "OverloadSpec",
    "BackgroundLoad",
    "TenantBurst",
    "ChurnStorm",
    "MemoryClamp",
]
