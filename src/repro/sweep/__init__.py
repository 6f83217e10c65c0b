"""Parallel scenario sweeps (``repro.sweep``).

The distributed-job-runner layer of the reproduction: a declarative
spec (cartesian grids over topology, loss, CC, quACK parameters, chaos
plans) expands into independently seeded cells, the cells shard across
a process pool, and the outcomes aggregate into one schema-versioned
JSON artifact.  Guarantees, pinned by ``tests/sweep/``:

* **determinism** -- each cell's seed derives from
  ``(sweep_seed, cell_index)``; aggregates are byte-identical across
  worker counts and completion orders once timing metadata is stripped;
* **one attempt per cell** -- a cell is a pure function of its
  parameters and seed, so each runs once; a scenario that raises or a
  worker that dies is recorded in ``failed_cells`` rather than
  aborting the sweep;
* **resumability** -- ``repro sweep --resume partial.json`` re-runs
  only the missing/failed cells of a matching sweep.

Quick start::

    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec.from_dict({
        "name": "retx", "scenario": "retransmission", "seed": 7,
        "base": {"total_bytes": 100_000},
        "grid": {"loss_rate": [0.01, 0.05], "lossy_delay": [0.002, 0.02]},
    })
    aggregate = run_sweep(spec, workers=4)
    aggregate.save("sweep.json")
"""
