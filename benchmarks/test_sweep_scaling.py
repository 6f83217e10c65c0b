"""Sweep engine scaling: 4 workers vs serial on a 32-cell matrix,
plus scheduler-core throughput (calendar queue vs binary heap).

The acceptance bar from the sweep engine's design: a 32-cell sweep on
4 workers produces a byte-identical aggregate to the serial run once
wall-clock fields are stripped, and on a box with at least 4 CPUs
finishes at least 2x faster.  Cells are real, CPU-bound ``scale`` runs
(the multi-tenant flow table), so the speedup is bounded by physical
cores: with fewer than 4 the speedup is recorded but not asserted.

The scheduler-throughput case drains a burst-loaded queue (many events
pre-scheduled across a dense near horizon): the calendar queue's
batched same-bucket dispatch must beat the one-heappop-per-event loop
on raw drain rate.
"""

import json
import os

import pytest

from repro.bench.timing import measure, measure_staged
from repro.netsim.core import Simulator
from repro.sweep.artifact import strip_timing
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
# The heap oracle lives with the tests (run from the repository root:
# ``python -m pytest benchmarks/test_sweep_scaling.py``).
from tests.netsim.heap_oracle import make_simulator


@pytest.fixture(scope="module")
def spec():
    return SweepSpec.from_dict({
        "name": "scaling", "scenario": "scale", "seed": 21,
        "base": {"duration_s": 0.5},
        "grid": {"flows": [500, 1000, 1500, 2000], "churn_rate": [0.0, 0.1],
                 "tenants": [2, 4, 8, 16]},
    })


def test_parallel_speedup_with_identical_aggregates(benchmark, spec):
    assert spec.num_cells == 32

    aggregates = {}

    def sweep(workers):
        aggregates[workers] = run_sweep(spec, workers=workers)

    serial = measure(lambda: sweep(1), trials=1, warmup=0).mean
    parallel = measure(lambda: sweep(4), trials=1, warmup=0).mean
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    speedup = serial / parallel
    benchmark.extra_info["cells"] = spec.num_cells
    benchmark.extra_info["serial_s"] = round(serial, 3)
    benchmark.extra_info["parallel_s"] = round(parallel, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (serial, parallel)

    stripped_serial = strip_timing(aggregates[1].to_dict())
    stripped_parallel = strip_timing(aggregates[4].to_dict())
    assert json.dumps(stripped_serial, sort_keys=True) \
        == json.dumps(stripped_parallel, sort_keys=True)


def test_parallel_overhead_on_trivial_cells(benchmark, spec):
    """The fixed cost of the pool itself, for the docs' guidance that
    sub-millisecond cells should run serially."""
    tiny = SweepSpec.from_dict({
        "name": "tiny", "scenario": "scale", "seed": 21,
        "base": {"tenants": 2, "duration_s": 0.05},
        "grid": {"flows": [4, 8, 12, 16]},
    })

    def run():
        return run_sweep(tiny, workers=2)

    aggregate = benchmark.pedantic(run, rounds=1, iterations=1)
    assert aggregate.ok
    benchmark.extra_info["cells"] = tiny.num_cells


N_BURST_EVENTS = 100_000


def _burst_drain_rate(scheduler: str) -> float:
    """Events dispatched per second draining a burst-loaded queue.

    Events packed onto 500 distinct timestamps inside a 50 ms horizon
    (dense same-bucket batches), scheduling untimed, drain timed.
    """
    def build() -> Simulator:
        sim = make_simulator(scheduler)
        fired = [0]

        def on_event() -> None:
            fired[0] += 1

        schedule = sim.schedule
        step = 0.05 / 500
        for index in range(N_BURST_EVENTS):
            schedule((index % 500) * step, on_event)
        return sim

    timing = measure_staged(build, lambda sim: sim.run(),
                            trials=3, warmup=1)
    return N_BURST_EVENTS / timing.mean


def test_scheduler_throughput_calendar_beats_heap(benchmark):
    """The tentpole's perf claim at the microbench level: batched
    bucket dispatch outruns per-event heap pops on burst arrivals."""
    heap_rate = _burst_drain_rate("heap")
    calendar_rate = _burst_drain_rate("calendar")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    benchmark.extra_info["events"] = N_BURST_EVENTS
    benchmark.extra_info["heap_events_per_sec"] = round(heap_rate)
    benchmark.extra_info["calendar_events_per_sec"] = round(calendar_rate)
    benchmark.extra_info["speedup"] = round(calendar_rate / heap_rate, 2)
    # Conservative floor for noisy CI boxes; typical is ~2x or better.
    assert calendar_rate >= 1.3 * heap_rate, (calendar_rate, heap_rate)
