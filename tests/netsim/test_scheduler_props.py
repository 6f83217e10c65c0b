"""Property-based scheduler equivalence (Hypothesis).

The differential suite proves heap == calendar on the *real* workloads;
this suite attacks the backends with randomized interleavings of
schedule / schedule_at / cancel / timer-rearm / partial-run operations
that no scenario would naturally produce -- bucket-boundary times,
cancel-then-reschedule churn, far-future jumps over long empty
stretches, suspensions in the middle of a bucket.

Properties:

* dispatch order is strictly non-decreasing in ``(time, seq)``;
* a cancelled event never fires, and fires exactly once otherwise;
* both backends produce the *identical* dispatch sequence for any
  program of operations.
"""

from __future__ import annotations

import pytest

from repro.netsim.sched import BUCKET_WIDTH
from tests.netsim.heap_oracle import make_simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WIDTH = BUCKET_WIDTH
#: A far-future distance: this many buckets, most of them empty.
FAR = 512
HORIZON = BUCKET_WIDTH * FAR

# Delays chosen to stress every placement class: zero-delay chains,
# sub-bucket, exact bucket boundaries, a few buckets ahead, and far
# ahead across long runs of empty buckets.
DELAYS = st.sampled_from([
    0.0, WIDTH / 10, WIDTH / 2,
    WIDTH, WIDTH * 1.5, WIDTH * 2,
    WIDTH * 100, HORIZON - WIDTH, HORIZON, HORIZON * 2,
])

# One operation of the random program.  ``target`` indexes into the
# set of previously scheduled events (modulo its size) for cancels.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(st.just("schedule_from_callback"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0,
                                                 max_value=10_000)),
        st.tuples(st.just("rearm_timer"), DELAYS),
        st.tuples(st.just("run_for"), DELAYS),
    ),
    min_size=1, max_size=60,
)


def _execute(ops, scheduler: str) -> list[tuple]:
    """Run one operation program; return the dispatch log.

    Log entries are ``(kind, label, round(time, 12))`` so the comparison
    is over observable behavior (which callback fired when), not over
    backend internals.
    """
    sim = make_simulator(scheduler)
    log: list[tuple] = []
    handles: list = []
    timer_holder = [None]

    def fire(label):
        log.append(("fire", label, round(sim.now, 12)))

    def fire_and_schedule(label, delay):
        log.append(("chain", label, round(sim.now, 12)))
        handles.append(sim.schedule(delay, fire, f"{label}+chained"))

    def timer_tick():
        log.append(("timer", timer_holder[0].rearms, round(sim.now, 12)))

    timer_holder[0] = sim.timer(timer_tick)

    for position, (op, arg) in enumerate(ops):
        if op == "schedule":
            handles.append(sim.schedule(arg, fire, f"ev{position}"))
        elif op == "schedule_from_callback":
            handles.append(
                sim.schedule(arg, fire_and_schedule, f"cb{position}", arg))
        elif op == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif op == "rearm_timer":
            timer_holder[0].rearm(arg)
        elif op == "run_for":
            sim.run(until=sim.now + arg)
    sim.run()  # drain whatever is left
    return log


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_backends_dispatch_identically(ops):
    assert _execute(ops, "heap") == _execute(ops, "calendar")


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_dispatch_times_monotone_under_calendar(ops):
    log = _execute(ops, "calendar")
    times = [entry[2] for entry in log]
    assert times == sorted(times)


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(DELAYS, min_size=1, max_size=30),
    cancels=st.sets(st.integers(min_value=0, max_value=29)),
)
def test_cancelled_never_fire_others_exactly_once(delays, cancels):
    for scheduler in ("heap", "calendar"):
        sim = make_simulator(scheduler)
        fired: list[int] = []
        handles = [sim.schedule(delay, fired.append, index)
                   for index, delay in enumerate(delays)]
        for index in cancels:
            if index < len(handles):
                handles[index].cancel()
        sim.run()
        expected = [i for i in range(len(delays))
                    if i not in cancels]
        assert sorted(fired) == expected, scheduler
        # ... and in (time, seq) order: stable sort by delay == the
        # expected dispatch order, since seq is the schedule index.
        expected_order = sorted(expected, key=lambda i: (delays[i], i))
        assert fired == expected_order, scheduler


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(DELAYS, min_size=1, max_size=20),
    chunk=DELAYS.filter(lambda d: d > 0),
)
def test_chunked_run_equals_single_run(delays, chunk):
    def run_all_at_once(scheduler):
        sim = make_simulator(scheduler)
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, fired.append, index)
        sim.run()
        return fired

    def run_chunked(scheduler):
        sim = make_simulator(scheduler)
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, fired.append, index)
        deadline = max(delays) + chunk
        while sim.now < deadline:
            sim.run(until=min(sim.now + chunk, deadline))
        return fired

    reference = run_all_at_once("heap")
    for scheduler in ("heap", "calendar"):
        assert run_all_at_once(scheduler) == reference, scheduler
        assert run_chunked(scheduler) == reference, scheduler


@settings(max_examples=100, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=9), min_size=2,
                     max_size=12),
    cut=st.integers(min_value=0, max_value=9),
    late=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                  max_size=4),
)
def test_suspend_mid_bucket_then_schedule_into_it(offsets, cut, late):
    """``run(until=)`` stops inside a bucket; events scheduled into that
    bucket afterwards take their ``(time, seq)`` place among the rest."""
    bucket = 7 * WIDTH
    step = WIDTH / 10

    def run(scheduler):
        sim = make_simulator(scheduler)
        fired = []
        for index, offset in enumerate(offsets):
            sim.schedule_at(bucket + offset * step, fired.append, index)
        sim.run(until=bucket + cut * step)
        for index, offset in enumerate(late):
            sim.schedule_at(max(bucket + offset * step, sim.now),
                            fired.append, f"late{index}")
        sim.run()
        return fired

    assert run("calendar") == run("heap")


@settings(max_examples=100, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=19), min_size=2,
                     max_size=12),
    limit=st.integers(min_value=1, max_value=12),
    late=st.lists(st.integers(min_value=0, max_value=19), min_size=1,
                  max_size=4),
)
def test_stop_after_max_events_then_schedule_behind_the_batch(offsets, limit,
                                                             late):
    """``run(max_events=)`` can stop with the next bucket's events still
    pending while the clock is in an earlier bucket; an event scheduled
    there afterwards fires before them."""
    step = WIDTH / 10

    def run(scheduler):
        sim = make_simulator(scheduler)
        fired = []
        for index, offset in enumerate(sorted(offsets)):
            sim.schedule_at(6 * WIDTH + offset * step, fired.append, index)
        sim.run(max_events=limit)
        for index, offset in enumerate(late):
            sim.schedule_at(max(6 * WIDTH + offset * step, sim.now),
                            fired.append, f"late{index}")
        sim.run()
        return fired

    assert run("calendar") == run("heap")
