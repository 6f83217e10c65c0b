"""Timing utilities matching the paper's methodology.

Table 2's caption: "Average of 100 trials with warmup."  :func:`measure`
implements exactly that -- run the callable ``warmup`` times unrecorded,
then ``trials`` times recorded -- and returns simple statistics.  The
pytest-benchmark files use their own machinery for statistical rigor;
this module serves the examples and the table-printing harness, which
want paper-style single numbers.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class TimingResult:
    """Statistics over recorded trials, in seconds."""

    trials: int
    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def mean_us(self) -> float:
        return self.mean * 1e6

    def __str__(self) -> str:
        return (f"{self.mean_us:,.1f} us (median {self.median * 1e6:,.1f}, "
                f"+/- {self.stdev * 1e6:,.1f}, n={self.trials})")


def _summary(samples: list[float]) -> TimingResult:
    return TimingResult(
        trials=len(samples),
        mean=statistics.fmean(samples),
        median=statistics.median(samples),
        stdev=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        minimum=min(samples),
        maximum=max(samples),
    )


def measure(fn: Callable[[], object], trials: int = 100,
            warmup: int = 3) -> TimingResult:
    """Time ``fn`` with warmup, the paper's Table 2 methodology."""
    return measure_interleaved([fn], trials, warmup)[0]


def measure_interleaved(fns: Sequence[Callable[[], object]], trials: int,
                        warmup: int) -> list[TimingResult]:
    """Time several callables round-robin, one result each: every trial
    times each callable once, so a swing in host speed spreads over all
    of them instead of landing on one."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(warmup + trials):
        for fn, recorded in zip(fns, samples):
            start = time.perf_counter()
            fn()
            recorded.append(time.perf_counter() - start)
    return [_summary(recorded[warmup:]) for recorded in samples]


def measure_staged(setup: Callable[[], object],
                   stage: Callable[[object], object],
                   trials: int = 100, warmup: int = 3) -> TimingResult:
    """Time ``stage(setup())`` with only ``stage`` inside the clock.

    For consume-once workloads (e.g. draining a pre-loaded event queue)
    where the preparation cost must not pollute the measured rate:
    ``setup`` builds a fresh workload per trial, untimed; ``stage``
    consumes it, timed.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for _ in range(warmup):
        stage(setup())
    samples = []
    for _ in range(trials):
        prepared = setup()
        start = time.perf_counter()
        stage(prepared)
        samples.append(time.perf_counter() - start)
    return _summary(samples)


def measure_throughput(fn: Callable[[], object], items_per_call: int,
                       trials: int = 20) -> float:
    """Items processed per second (e.g. digests/s for the Strawman 2
    extrapolation), after two warmup calls."""
    result = measure(fn, trials=trials, warmup=2)
    if result.mean <= 0:
        return math.inf
    return items_per_call / result.mean
