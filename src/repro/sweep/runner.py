"""The sweep engine: run every seeded cell of a spec exactly once.

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec` into cells
and runs each one once:

* **serial** (``workers=1``): a loop over the cells, in index order,
  in-process -- the reference execution the parallel path must
  reproduce;
* **parallel**: one ``ProcessPoolExecutor`` (worker count auto-detected
  from the CPU count unless overridden) with one task per cell,
  collected with ``as_completed``.  Results are keyed by cell index, so
  the aggregate is independent of completion order.

Every scenario is a pure function of its keywords and seed (DESIGN.md
§9), so a cell that raised would raise again: nothing is retried.  A
scenario that raises gives a failed cell carrying ``"<Type>:
<message>"``; a worker that dies breaks the pool, and every cell not yet
finished fails with :data:`POOL_BROKEN`.  The sweep never aborts and
never drops a cell; ``repro sweep --resume`` re-runs the failed and
missing ones.
"""

from __future__ import annotations

import datetime as _datetime
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Mapping

from repro import obs
from repro.errors import SweepSpecError
from repro.sweep.artifact import (
    CELL_FAILED,
    CELL_OK,
    CellOutcome,
    SweepAggregate,
    completed_results,
)
from repro.sweep.scenarios import known_scenarios, run_cell
from repro.sweep.spec import SweepCell, SweepSpec

#: The error of every cell a dead worker left unfinished: the parent
#: cannot tell which task killed the pool.
POOL_BROKEN = "worker process died before this cell finished"


def default_workers() -> int:
    """Worker count when the spec and CLI are silent: one per CPU."""
    return max(1, os.cpu_count() or 1)


def _failed(cell: SweepCell, error: str) -> CellOutcome:
    return CellOutcome(index=cell.index, params=dict(cell.params),
                       seed=cell.seed, status=CELL_FAILED, error=error)


def _execute_cell(scenario: str, cell: SweepCell,
                  telemetry: bool) -> CellOutcome:
    """Run one cell once; must stay module-level (picklable).

    A scenario that raises gives a failed outcome, not an exception.
    With ``telemetry`` on, the cell runs in metrics-only observability
    mode (:func:`repro.obs.enable_metrics`: guarded counters and
    histograms record, trace events are dropped) and the outcome carries
    the worker registry's snapshot, which
    :func:`repro.obs.aggregate.merge_snapshots` folds sweep-wide.
    """
    start = time.perf_counter()
    if telemetry:
        obs.reset()
        obs.enable_metrics()
    try:
        result = run_cell(scenario, cell.params, cell.seed)
    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
        return _failed(cell, f"{type(exc).__name__}: {exc}")
    finally:
        if telemetry:
            obs.disable()
    snapshot = None
    if telemetry:
        snapshot = obs.METRICS.snapshot()
        obs.METRICS.reset()
    return CellOutcome(index=cell.index, params=dict(cell.params),
                       seed=cell.seed, status=CELL_OK,
                       result=_json_sanitize(result),
                       wall_time_s=time.perf_counter() - start,
                       telemetry=snapshot)


def _json_sanitize(value):
    """Recursively null out non-finite floats so aggregates always dump."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(item) for item in value]
    return value


def _run_parallel(scenario: str, todo: list[SweepCell], workers: int,
                  telemetry: bool) -> Iterator[CellOutcome]:
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_execute_cell, scenario, cell, telemetry):
                   cell for cell in todo}
        for future in as_completed(futures):
            try:
                yield future.result()
            except BrokenProcessPool:
                yield _failed(futures[future], POOL_BROKEN)


def run_sweep(spec: SweepSpec, *, workers: int | None = None,
              resume: Mapping | None = None,
              progress: Callable[[str], None] | None = None,
              telemetry: bool = False) -> SweepAggregate:
    """Run every cell of ``spec`` once and aggregate the outcomes.

    ``workers`` overrides (in precedence order) the spec's ``workers``
    field and the CPU-count default.  ``resume`` is a previously saved
    aggregate dict (see :func:`repro.sweep.artifact.load_aggregate_dict`)
    whose ``ok`` cells are carried over instead of re-run; it must stem
    from a spec with the same fingerprint.  ``progress`` receives
    one-line status strings as cells finish.  ``telemetry`` runs every
    cell in metrics-only observability mode and merges the per-worker
    snapshots into the aggregate's sweep-wide ``telemetry`` block (see
    :mod:`repro.obs.aggregate`); virtual-time determinism makes the
    merged block identical across worker counts.
    """
    started = time.perf_counter()
    if spec.scenario not in known_scenarios():
        raise SweepSpecError(
            f"unknown sweep scenario {spec.scenario!r}; have "
            f"{', '.join(known_scenarios())}")
    stamp = _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds")
    if workers is None:
        workers = spec.workers or default_workers()
    say = progress if progress is not None else (lambda message: None)

    cells = spec.cells()
    outcomes: dict[int, CellOutcome] = {}
    if resume is not None:
        outcomes = completed_results(spec, resume)
        if outcomes:
            say(f"resume: carrying over {len(outcomes)} of "
                f"{len(cells)} completed cell(s)")
    todo = [cell for cell in cells if cell.index not in outcomes]

    if workers == 1 or len(todo) <= 1:
        fresh = (_execute_cell(spec.scenario, cell, telemetry)
                 for cell in todo)
    else:
        fresh = _run_parallel(spec.scenario, todo, workers, telemetry)
    for outcome in fresh:
        outcomes[outcome.index] = outcome
        if outcome.ok:
            say(f"cell {outcome.index}: ok ({outcome.wall_time_s:.2f} s)")
        else:
            say(f"cell {outcome.index}: FAILED {outcome.error}")

    return SweepAggregate(
        spec=spec,
        cells=[outcomes[cell.index] for cell in cells],
        workers=workers,
        wall_time_s=time.perf_counter() - started,
        recorded_at=stamp,
    )
