"""Chaos harness: fault-injection scenarios for the sidecar stack.

The netsim layer provides the generic injectors
(:mod:`repro.netsim.faults`); this package adds the sidecar-aware pieces
(:mod:`repro.chaos.injectors`) and the scenarios with invariant checks
(:mod:`repro.chaos.harness`), overlays on the rows of
:mod:`repro.sidecar.path`.  Quick start::

    from repro.chaos.harness import run_plan
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
row of :data:`~repro.chaos.harness.PLANS`
(``python -m repro chaos --list-plans``).

Presentation belongs to the caller:
:func:`~repro.chaos.harness.format_result` renders a result as text,
and the ``python -m repro chaos`` subcommand is the one place that
prints it.  Library code returns data and stays silent.
"""
