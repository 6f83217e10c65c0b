"""Timer-wheel edge cases: the reusable :class:`repro.netsim.Timer`.

The recurring clocks (quACK emission, PTO, checkpoints, staleness
probes) all live on :class:`Timer` handles; these tests pin down the
corners the scenario suites reach only by accident: rearming from
inside the timer's own callback, cancel-after-fire idempotency, timers
landing exactly on bucket boundaries, and far-future arms firing in
order across long runs of empty buckets.
"""

from __future__ import annotations

import pytest

from repro.netsim.core import Simulator
from repro.netsim.sched import BUCKET_WIDTH, CalendarScheduler
from tests.netsim.heap_oracle import BACKENDS, make_simulator

WIDTH = BUCKET_WIDTH
#: A far-future distance: this many buckets, most of them empty.
FAR = 512
HORIZON = BUCKET_WIDTH * FAR


@pytest.fixture(params=BACKENDS)
def sim(request):
    return make_simulator(request.param)


class TestRearmWithinCallback:
    """The normal life of a recurring clock: rearm from its own tick."""

    def test_periodic_rearm_fires_every_period(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                timer.rearm(0.02)

        timer = sim.timer(tick)
        timer.rearm(0.02)
        sim.run()
        assert len(ticks) == 5
        for index, when in enumerate(ticks, start=1):
            assert when == pytest.approx(0.02 * index)

    def test_rearm_same_tick_zero_delay(self, sim):
        # A zero-delay rearm from the callback lands in the *currently
        # dispatching* bucket -- the calendar must merge it in, not lose
        # it or fire it out of order.
        order = []

        def tick():
            order.append(("tick", sim.now))
            if len(order) < 3:
                timer.rearm(0.0)

        timer = sim.timer(tick)
        sim.schedule(0.01, order.append, ("other", 0.01))
        timer.rearm(0.005)
        sim.run()
        assert order == [("tick", 0.005), ("tick", 0.005), ("tick", 0.005),
                         ("other", 0.01)]

    def test_rearm_from_callback_supersedes_nothing_pending(self, sim):
        # After the callback started, the arm that fired is spent;
        # rearm() must not try to cancel it again (rearms counts arms).
        fire_count = [0]

        def tick():
            fire_count[0] += 1
            if fire_count[0] == 1:
                timer.rearm(0.1)

        timer = sim.timer(tick)
        timer.rearm(0.1)
        sim.run()
        assert fire_count[0] == 2
        assert timer.rearms == 2


class TestCancelIdempotency:
    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        timer = sim.timer(fired.append, "x")
        timer.rearm(0.01)
        sim.run()
        assert fired == ["x"]
        timer.cancel()  # already fired: must be a no-op
        timer.cancel()  # and idempotent
        sim.run()
        assert fired == ["x"]

    def test_cancel_before_fire_then_rearm(self, sim):
        fired = []
        timer = sim.timer(fired.append, "x")
        timer.rearm(0.01)
        timer.cancel()
        sim.run()
        assert fired == []
        # The cancelled run dispatched nothing, so the clock is still 0
        # and the new arm fires at an absolute 0.02.
        timer.rearm(0.02)
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(0.02)

    def test_rearm_supersedes_pending_arm_exactly_once(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.rearm(0.5)
        timer.rearm(0.1)  # supersedes: only the 0.1 s arm may fire
        sim.run()
        assert fired == [pytest.approx(0.1)]
        assert timer.rearms == 2

    def test_next_fire_time_tracks_the_live_arm(self, sim):
        timer = sim.timer(lambda: None)
        assert timer.next_fire_time is None
        timer.rearm(0.25)
        assert timer.next_fire_time == pytest.approx(0.25)
        timer.rearm(0.125)
        assert timer.next_fire_time == pytest.approx(0.125)
        timer.cancel()
        assert timer.next_fire_time is None


class TestBucketBoundaries:
    """Times landing exactly on calendar bucket edges."""

    @pytest.mark.parametrize("boundary_multiple", [1, 2, 7,
                                                   FAR - 1,
                                                   FAR])
    def test_exact_boundary_times_fire_in_order(self, boundary_multiple):
        reference = None
        for scheduler in BACKENDS:
            sim = make_simulator(scheduler)
            fired = []
            edge = WIDTH * boundary_multiple
            # Straddle the edge: just below, exactly on, just above.
            sim.schedule(edge + WIDTH / 4, fired.append, "above")
            sim.schedule(edge, fired.append, "on-a")
            sim.schedule(edge - WIDTH / 4, fired.append, "below")
            sim.schedule(edge, fired.append, "on-b")  # same-time tie
            sim.run()
            assert fired == ["below", "on-a", "on-b", "above"], scheduler
            if reference is None:
                reference = fired
            assert fired == reference

    def test_timer_rearm_onto_boundary(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.rearm(WIDTH * 3)  # from t=0: exactly the start of bucket 3
        sim.schedule(WIDTH * 3 - 1e-9, fired.append, None)
        sim.run()
        assert fired[0] is None
        assert fired[1] == pytest.approx(WIDTH * 3)


class TestOverflowMigration:
    """Far-future arms fire in (time, seq) order, however many empty
    buckets lie between."""

    def test_far_future_timer_fires_on_time(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.rearm(HORIZON * 4)
        sim.schedule(0.01, fired.append, "near")
        sim.run()
        assert fired == ["near", pytest.approx(HORIZON * 4)]

    def test_migrated_events_keep_time_seq_order(self):
        # Schedule a far cluster with deliberate ties, then step the
        # clock toward it: it must fire in the heap oracle's order.
        def run(scheduler):
            sim = make_simulator(scheduler)
            fired = []
            far = HORIZON * 2
            for index in range(8):
                sim.schedule(far + (index % 3) * WIDTH / 2,
                             fired.append, index)
            # Near activity that moves the clock forward in steps
            # before the cluster is due.
            def step():
                if sim.now < far:
                    stepper.rearm(HORIZON / 3)
            stepper = sim.timer(step)
            stepper.rearm(HORIZON / 3)
            sim.run()
            return fired

        assert run("calendar") == run("heap")

    def test_cancelled_overflow_arm_never_migrates_into_firing(self):
        sim = Simulator()
        backend = sim._sched
        assert isinstance(backend, CalendarScheduler)
        fired = []
        timer = sim.timer(fired.append, "far")
        timer.rearm(HORIZON * 3)
        timer.cancel()
        sim.schedule(HORIZON * 3 + WIDTH, fired.append, "live")
        sim.run()
        assert fired == ["live"]
        assert backend.events_cancelled_dropped == 1

    def test_overflow_migration_counter_increments(self):
        # Named for the overflow heap the queue once had; what stays is
        # the behaviour: far events fire, in order, on time.
        sim = Simulator()
        fired = []
        sim.schedule(HORIZON * 2, fired.append, "far")
        sim.schedule(HORIZON, fired.append, "mid")
        sim.run()
        assert fired == ["mid", "far"]
        assert sim.now == pytest.approx(HORIZON * 2)

    def test_rearm_cycle_through_overflow_and_back(self, sim):
        # A timer alternating between near and far arms.
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 1:
                timer.rearm(HORIZON * 1.5)  # near -> far
            elif len(fired) == 2:
                timer.rearm(WIDTH / 2)      # far -> near
        timer = sim.timer(tick)
        timer.rearm(0.01)
        sim.run()
        assert len(fired) == 3
        assert fired[0] == pytest.approx(0.01)
        assert fired[1] == pytest.approx(0.01 + HORIZON * 1.5)
        assert fired[2] == pytest.approx(0.01 + HORIZON * 1.5 + WIDTH / 2)
