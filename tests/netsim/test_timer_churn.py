"""Timer cancel/rearm under mass flow teardown (Hypothesis).

The multi-tenant flow table multiplexes thousands of per-flow
lifecycles over the scheduler: admission arms a timer, churn storms
tear whole tenant populations down at once (tombstoning pending arms in
place), clamp evictions cancel mid-flight, and rejoin re-arms a
cancelled timer later.  The scheduler-props suite covers randomized
single-timer interleavings; these properties attack the *mass* pattern
-- teardown waves over a population of timers -- and check that

* both backends dispatch identically through arbitrary wave programs;
* a phased workload (all waves strictly before any firing) matches an
  independently computed oracle of exactly which flows fire, when, and
  in what order;
* after a full-population teardown nothing fires unless rejoined, and
  everything that fired before the wave is accounted for.
"""

from __future__ import annotations

import pytest

from repro.netsim.sched import BUCKET_WIDTH, WHEEL_SLOTS
from tests.netsim.heap_oracle import make_simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WIDTH = BUCKET_WIDTH
HORIZON = WIDTH * WHEEL_SLOTS

# Arm delays spanning every placement class of the wheel: sub-bucket,
# boundary, mid-ring, and the overflow heap past the horizon.
ARM_DELAYS = st.sampled_from([
    WIDTH / 2, WIDTH, WIDTH * 3, HORIZON / 2, HORIZON, HORIZON * 1.5])

#: One wave: (when index, action, first flow, population size, delay).
WAVES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.sampled_from(["teardown", "rejoin"]),
        st.integers(min_value=0, max_value=9999),
        st.integers(min_value=1, max_value=30),
        ARM_DELAYS,
    ),
    min_size=1, max_size=20,
)

FLOWS = st.lists(ARM_DELAYS, min_size=1, max_size=40)


def _run_waves(flows, waves, scheduler, wave_step):
    """Arm one timer per flow, then run teardown/rejoin waves over them."""
    sim = make_simulator(scheduler)
    log: list[tuple] = []
    timers = []

    def fire(index: int) -> None:
        log.append((index, round(sim.now, 12)))

    for index, delay in enumerate(flows):
        timer = sim.timer(fire, index)
        timers.append(timer)
        timer.rearm(delay)

    def wave(action, first, count, delay):
        for offset in range(count):
            timer = timers[(first + offset) % len(timers)]
            if action == "teardown":
                timer.cancel()
            else:
                timer.rearm(delay)

    for when_index, action, first, count, delay in waves:
        sim.schedule(when_index * wave_step, wave, action, first, count,
                     delay)
    sim.run()
    return log


@settings(max_examples=75, deadline=None)
@given(flows=FLOWS, waves=WAVES)
def test_backends_agree_through_teardown_waves(flows, waves):
    wave_step = WIDTH * 0.77
    assert _run_waves(flows, waves, "heap", wave_step) \
        == _run_waves(flows, waves, "calendar", wave_step)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=1, max_value=40), waves=WAVES)
def test_phased_waves_match_the_oracle(count, waves):
    # Phased workload: every initial arm and every rejoin lands *after*
    # the last wave (delay >= 2*HORIZON, waves within 13 bucket widths),
    # so the final per-flow pending state alone decides what fires.  The
    # oracle replays the single-pending-arm semantics in plain Python:
    # cancel clears, rearm supersedes, ties break by arm order.
    late = HORIZON * 2
    wave_step = WIDTH * 0.77
    flows = [late + index * WIDTH for index in range(count)]
    waves = [(when, action, first, size, late + delay)
             for when, action, first, size, delay in waves]

    pending: dict[int, tuple[float, int]] = {
        index: (delay, index) for index, delay in enumerate(flows)}
    arm_seq = count
    for when_index, action, first, size, delay in sorted(
            waves, key=lambda w: w[0]):
        when = when_index * wave_step
        for offset in range(size):
            index = (first + offset) % count
            if action == "teardown":
                pending.pop(index, None)
            else:
                pending[index] = (when + delay, arm_seq)
                arm_seq += 1
    expected = [(index, round(time, 12))
                for index, (time, seq) in sorted(
                    pending.items(), key=lambda kv: (kv[1][0], kv[1][1]))]

    for scheduler in ("heap", "calendar"):
        assert _run_waves(flows, waves, scheduler, wave_step) \
            == expected, scheduler


@settings(max_examples=60, deadline=None)
@given(
    flows=FLOWS,
    teardown_buckets=st.integers(min_value=1, max_value=200),
    rejoin=st.sets(st.integers(min_value=0, max_value=39)),
    rejoin_delay=ARM_DELAYS,
)
def test_mass_teardown_silences_all_but_rejoined(flows, teardown_buckets,
                                                 rejoin, rejoin_delay):
    # One wave cancels the whole population (the churn-storm shape);
    # a second immediately rejoins a subset.  Offset the wave off the
    # delay grid so "fired before the wave" is unambiguous.
    teardown_at = teardown_buckets * WIDTH + WIDTH * 0.013
    rejoin = {index for index in rejoin if index < len(flows)}

    for scheduler in ("heap", "calendar"):
        sim = make_simulator(scheduler)
        log: list[tuple] = []
        timers = []

        def fire(index: int) -> None:
            log.append((index, round(sim.now, 12)))

        for index, delay in enumerate(flows):
            timer = sim.timer(fire, index)
            timers.append(timer)
            timer.rearm(delay)

        def storm() -> None:
            for timer in timers:
                timer.cancel()
            for index in sorted(rejoin):
                timers[index].rearm(rejoin_delay)

        sim.schedule(teardown_at, storm)
        sim.run()

        early = {index for index, delay in enumerate(flows)
                 if delay < teardown_at}
        fired_early = [entry for entry in log if entry[1] < teardown_at]
        fired_late = [entry for entry in log if entry[1] > teardown_at]
        assert {index for index, _ in fired_early} == early, scheduler
        assert sorted(index for index, _ in fired_late) \
            == sorted(rejoin), scheduler
        assert len(log) == len(early) + len(rejoin), scheduler
