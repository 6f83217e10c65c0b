"""Declarative sweep specs and their expansion into seeded cells.

A *sweep spec* describes a scenario matrix: one scenario (an E7-E9
protocol experiment, a chaos plan, or the flow table at scale), a dict
of fixed ``base`` parameters, and a ``grid`` of axes whose cartesian
product generates the cells.  The JSON form::

    {
      "schema": 1,
      "name": "retx-loss-delay",
      "scenario": "retransmission",
      "seed": 42,
      "base": {"total_bytes": 200000},
      "grid": {
        "loss_rate":   [0.01, 0.02, 0.05],
        "lossy_delay": [0.002, 0.01, 0.05]
      },
      "workers": 4
    }

Expansion is deterministic: axes are ordered by name, values keep their
spec order, and the product is enumerated row-major.  Each cell's RNG
seed is derived from ``(sweep_seed, cell_index)`` with SHA-256 -- a pure
function of the spec, never of scheduling -- which is what makes a sweep
reproduce byte-identically regardless of worker count or completion
order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import SweepSpecError

#: Version of the sweep spec/aggregate format.  Readers accept any
#: ``schema <= SWEEP_SCHEMA_VERSION`` (writers must stay additive).
SWEEP_SCHEMA_VERSION = 1

#: Keys a spec file may carry; anything else is a typo worth rejecting.
_SPEC_KEYS = frozenset({
    "schema", "name", "scenario", "seed", "base", "grid", "workers",
})


def derive_seed(sweep_seed: int, cell_index: int) -> int:
    """The cell's RNG seed: a pure function of ``(sweep_seed, index)``.

    SHA-256 rather than ``sweep_seed + index`` so that neighbouring
    cells (and neighbouring sweeps) get statistically unrelated streams;
    truncated to 63 bits so it stays a friendly non-negative int for
    ``random.Random`` and JSON alike.
    """
    digest = hashlib.sha256(
        f"repro.sweep:{sweep_seed}:{cell_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SweepCell:
    """One task of the matrix: resolved parameters plus a derived seed."""

    index: int
    params: dict[str, Any]
    seed: int

    def to_dict(self) -> dict:
        return {"index": self.index, "params": dict(self.params),
                "seed": self.seed}


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep spec (see the module docstring for the format)."""

    name: str
    scenario: str
    grid: dict[str, tuple]
    base: dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    workers: int | None = None
    schema: int = SWEEP_SCHEMA_VERSION

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, record: Mapping) -> "SweepSpec":
        """Validate a decoded spec; raise :class:`SweepSpecError` on rot."""
        if not isinstance(record, Mapping):
            raise SweepSpecError(
                f"spec must be a JSON object, got {type(record).__name__}")
        unknown = sorted(set(record) - _SPEC_KEYS)
        if unknown:
            raise SweepSpecError(
                f"spec has unknown key(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(_SPEC_KEYS))}")
        schema = record.get("schema", SWEEP_SCHEMA_VERSION)
        if not isinstance(schema, int) or isinstance(schema, bool):
            raise SweepSpecError("spec 'schema' must be an integer")
        if schema > SWEEP_SCHEMA_VERSION:
            raise SweepSpecError(
                f"spec uses schema {schema}, newer than the supported "
                f"{SWEEP_SCHEMA_VERSION}")
        scenario = record.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise SweepSpecError("spec needs a non-empty 'scenario' string")
        name = record.get("name", scenario)
        if not isinstance(name, str) or not name:
            raise SweepSpecError("spec 'name' must be a non-empty string")

        base = record.get("base", {})
        if not isinstance(base, Mapping):
            raise SweepSpecError("spec 'base' must be an object")
        grid = record.get("grid", {})
        if not isinstance(grid, Mapping):
            raise SweepSpecError("spec 'grid' must be an object")
        clean_grid: dict[str, tuple] = {}
        for axis in sorted(grid):
            values = grid[axis]
            if isinstance(values, (str, bytes)) \
                    or not isinstance(values, Sequence):
                raise SweepSpecError(
                    f"grid axis {axis!r} must be a list of values")
            if len(values) == 0:
                raise SweepSpecError(f"grid axis {axis!r} is empty")
            if axis in base:
                raise SweepSpecError(
                    f"grid axis {axis!r} shadows a base parameter")
            clean_grid[axis] = tuple(values)

        seed = record.get("seed", 1)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SweepSpecError("spec 'seed' must be an integer")
        workers = record.get("workers")
        if workers is not None and (not isinstance(workers, int)
                                    or isinstance(workers, bool)
                                    or workers < 1):
            raise SweepSpecError("spec 'workers' must be an integer >= 1")

        return cls(name=name, scenario=scenario, grid=clean_grid,
                   base=dict(base), seed=seed, workers=workers,
                   schema=schema)

    @classmethod
    def from_json_file(cls, path: str) -> "SweepSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except OSError as exc:
            raise SweepSpecError(f"cannot read spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SweepSpecError(
                f"spec {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(record)

    # -- identity ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical JSON-safe form (axes sorted, values in order)."""
        return {
            "schema": self.schema,
            "name": self.name,
            "scenario": self.scenario,
            "seed": self.seed,
            "base": dict(self.base),
            "grid": {axis: list(values)
                     for axis, values in sorted(self.grid.items())},
            "workers": self.workers,
        }

    def fingerprint(self) -> str:
        """Identity of the *result-determining* part of the spec.

        The worker count is excluded: two runs differing only in it must
        produce the same cells, so their partial aggregates are mutually
        resumable.
        """
        payload = {
            "schema": self.schema,
            "scenario": self.scenario,
            "seed": self.seed,
            "base": dict(sorted(self.base.items())),
            "grid": {axis: list(values)
                     for axis, values in sorted(self.grid.items())},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- expansion ---------------------------------------------------------

    @property
    def num_cells(self) -> int:
        product = 1
        for values in self.grid.values():
            product *= len(values)
        return product

    def cells(self) -> list[SweepCell]:
        """Expand the grid row-major over name-sorted axes."""
        axes = sorted(self.grid)
        combos = itertools.product(*(self.grid[axis] for axis in axes)) \
            if axes else iter([()])
        cells = []
        for index, combo in enumerate(combos):
            params = dict(self.base)
            params.update(zip(axes, combo))
            cells.append(SweepCell(index=index, params=params,
                                   seed=derive_seed(self.seed, index)))
        return cells
