"""Sweep aggregates: the schema-versioned artifact a sweep produces.

One sweep run yields one :class:`SweepAggregate`: every cell's outcome
(ordered by cell index, never by completion order), a ``failed_cells``
section for tasks that exhausted their retries, and a ``timing`` block
that quarantines everything wall-clock-dependent.  The split is load
bearing: :func:`strip_timing` removes the quarantined fields and what
remains is guaranteed byte-identical across worker counts and
completion orders -- the engine's determinism contract, pinned by
``tests/sweep/test_determinism.py``.

The artifact is designed to be fed onward:

* ``repro diff a.json b.json`` ranks what moved between two
  aggregates' telemetry blocks, ``repro slo --snapshot`` gates on one;
* ``repro sweep --resume partial.json`` reloads one and re-runs only
  the cells that are missing or failed (:func:`completed_results`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SweepError, SweepResumeError
from repro.obs.aggregate import merge_snapshots
from repro.sweep.spec import SWEEP_SCHEMA_VERSION, SweepSpec

#: How a finished cell ended up.
CELL_OK = "ok"
CELL_FAILED = "failed"

#: Failure classes the runner distinguishes (``error_kind``).
ERROR_EXCEPTION = "exception"      # scenario raised inside the worker
ERROR_WORKER_CRASH = "worker-crash"  # worker process died; pool rebuilt
ERROR_TIMEOUT = "timeout"          # task exceeded task_timeout_s


@dataclass
class CellOutcome:
    """One cell's final state after retries."""

    index: int
    params: dict[str, Any]
    seed: int
    status: str
    attempts: int
    result: dict | None = None
    error: str | None = None
    error_kind: str | None = None
    wall_time_s: float = 0.0
    #: Mergeable metrics snapshot from the worker (``--telemetry`` runs).
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == CELL_OK

    def to_dict(self) -> dict:
        record = {
            "index": self.index,
            "params": dict(self.params),
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "result": self.result,
            "wall_time_s": self.wall_time_s,
        }
        if self.status == CELL_FAILED:
            record["error"] = self.error
            record["error_kind"] = self.error_kind
        if self.telemetry is not None:
            record["telemetry"] = self.telemetry
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "CellOutcome":
        try:
            return cls(
                index=int(record["index"]),
                params=dict(record["params"]),
                seed=int(record["seed"]),
                status=str(record["status"]),
                attempts=int(record.get("attempts", 1)),
                result=record.get("result"),
                error=record.get("error"),
                error_kind=record.get("error_kind"),
                wall_time_s=float(record.get("wall_time_s", 0.0)),
                telemetry=record.get("telemetry"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepError(f"malformed cell record {record!r}: {exc}") \
                from exc


@dataclass
class SweepAggregate:
    """Everything one sweep produced, in cell order."""

    spec: SweepSpec
    cells: list[CellOutcome]
    workers: int = 1
    wall_time_s: float = 0.0
    recorded_at: str = ""
    schema: int = SWEEP_SCHEMA_VERSION

    @property
    def failed_cells(self) -> list[CellOutcome]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def ok(self) -> bool:
        return not self.failed_cells

    @property
    def telemetry(self) -> dict | None:
        """Sweep-wide telemetry: every cell's snapshot merged into one.

        ``None`` unless the sweep ran with telemetry collection on.
        Merging is commutative and series come out sorted, so this block
        is as deterministic as the cell results themselves and survives
        :func:`strip_timing`.
        """
        per_cell = [cell.telemetry for cell in self.cells
                    if cell.telemetry is not None]
        if not per_cell:
            return None
        return merge_snapshots(per_cell)

    def to_dict(self) -> dict:
        """The artifact: deterministic body plus a ``timing`` block."""
        cells = sorted(self.cells, key=lambda cell: cell.index)
        retried = sum(1 for cell in cells if cell.attempts > 1)
        telemetry = self.telemetry
        # Resume can mix telemetry-bearing fresh cells with carried-over
        # cells that have none; the count makes partial coverage visible.
        covered = sum(1 for cell in cells if cell.telemetry is not None)
        return {
            "schema": self.schema,
            "kind": "sweep-aggregate",
            "name": self.spec.name,
            "scenario": self.spec.scenario,
            "fingerprint": self.spec.fingerprint(),
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict() for cell in cells],
            "failed_cells": [
                {"index": cell.index, "params": dict(cell.params),
                 "error": cell.error, "error_kind": cell.error_kind,
                 "attempts": cell.attempts}
                for cell in cells if not cell.ok],
            "summary": {
                "total": len(cells),
                "ok": sum(1 for cell in cells if cell.ok),
                "failed": sum(1 for cell in cells if not cell.ok),
                "retried": retried,
                **({"telemetry_cells": covered} if covered else {}),
            },
            **({"telemetry": telemetry} if telemetry is not None else {}),
            "timing": {
                "recorded_at": self.recorded_at,
                "wall_time_s": self.wall_time_s,
                "workers": self.workers,
            },
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def strip_timing(aggregate: Mapping) -> dict:
    """The deterministic core of an aggregate dict.

    Removes the ``timing`` block, per-cell wall clocks, attempt counts
    (a pool-breaking crash can burn an attempt of innocently
    co-scheduled cells, so attempts may vary with scheduling), and the
    retry tally derived from them.  Two runs of the same spec must
    compare equal under this projection whatever their worker counts.
    """
    body = {key: value for key, value in aggregate.items()
            if key != "timing"}
    body["cells"] = [
        {key: value for key, value in cell.items()
         if key not in ("wall_time_s", "attempts")}
        for cell in aggregate.get("cells", ())]
    body["failed_cells"] = [
        {key: value for key, value in cell.items() if key != "attempts"}
        for cell in aggregate.get("failed_cells", ())]
    summary = dict(aggregate.get("summary", {}))
    summary.pop("retried", None)
    body["summary"] = summary
    return body


def load_aggregate_dict(path: str) -> dict:
    """Read an aggregate artifact, checking shape and schema only."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        raise SweepError(f"cannot read aggregate {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SweepError(
            f"aggregate {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) \
            or record.get("kind") != "sweep-aggregate":
        raise SweepError(
            f"{path} is not a sweep aggregate (missing kind marker)")
    schema = record.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool):
        raise SweepError(f"aggregate {path} has no integer 'schema'")
    if schema > SWEEP_SCHEMA_VERSION:
        raise SweepError(
            f"aggregate {path} uses schema {schema}, newer than the "
            f"supported {SWEEP_SCHEMA_VERSION}")
    return record


def completed_results(spec: SweepSpec, partial: Mapping,
                      source: str = "partial aggregate"
                      ) -> dict[int, CellOutcome]:
    """Extract resumable cells from a partial aggregate.

    Only ``ok`` cells are carried over -- failed cells get a fresh set
    of attempts.  The partial must have been produced by a spec with the
    same fingerprint (same scenario, seed, base, and grid); scheduling
    knobs may differ.
    """
    fingerprint = partial.get("fingerprint")
    if fingerprint != spec.fingerprint():
        raise SweepResumeError(
            f"{source} was produced by a different sweep "
            f"(fingerprint {fingerprint!r}, expected "
            f"{spec.fingerprint()!r}); refusing to mix results")
    carried: dict[int, CellOutcome] = {}
    num_cells = spec.num_cells
    for record in partial.get("cells", ()):
        cell = CellOutcome.from_dict(record)
        if cell.ok and 0 <= cell.index < num_cells:
            carried[cell.index] = cell
    return carried


def format_aggregate(aggregate: Mapping, max_rows: int = 40) -> str:
    """Terminal summary of an aggregate dict: grid, outcomes, failures."""
    spec = aggregate.get("spec", {})
    summary = aggregate.get("summary", {})
    timing = aggregate.get("timing", {})
    axes = {axis: values for axis, values in spec.get("grid", {}).items()}
    lines = [
        f"sweep: {aggregate.get('name')} "
        f"(scenario {aggregate.get('scenario')}, "
        f"seed {spec.get('seed')}, fingerprint "
        f"{aggregate.get('fingerprint')})",
        "grid: " + (" x ".join(
            f"{axis}[{len(values)}]" for axis, values in axes.items())
            or "(single cell)"),
        f"cells: {summary.get('total', 0)} total, "
        f"{summary.get('ok', 0)} ok, {summary.get('failed', 0)} failed, "
        f"{summary.get('retried', 0)} retried",
    ]
    if timing:
        lines.append(
            f"timing: {timing.get('wall_time_s', 0.0):.2f} s on "
            f"{timing.get('workers', '?')} worker(s)")
    shown = 0
    for cell in aggregate.get("cells", ()):
        if shown >= max_rows:
            lines.append(f"  ... {len(aggregate['cells']) - shown} more "
                         f"cell(s) not shown")
            break
        shown += 1
        varying = {axis: cell["params"].get(axis) for axis in axes}
        label = ", ".join(f"{axis}={value}"
                          for axis, value in varying.items()) or "-"
        if cell.get("status") == CELL_OK:
            lines.append(f"  [{cell['index']:>3d}] ok      {label}")
        else:
            lines.append(f"  [{cell['index']:>3d}] FAILED  {label}  "
                         f"({cell.get('error_kind')}: {cell.get('error')})")
    failed = aggregate.get("failed_cells", ())
    if failed:
        lines.append(f"failed cells: "
                     + ", ".join(str(cell["index"]) for cell in failed))
    else:
        lines.append("failed cells: none")
    return "\n".join(lines)
