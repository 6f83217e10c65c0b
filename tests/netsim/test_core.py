"""Tests for the discrete-event simulator core (repro.netsim.core).

Behavioral tests run against the runtime's calendar queue *and* the
binary-heap oracle of ``heap_oracle.py`` via the parametrized ``sim``
fixture: the calendar queue must be observably indistinguishable from
the heap.  Counter tests are backend-specific, since the cost
signatures differ by design.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.core import Simulator, default_scheduler
from tests.netsim.heap_oracle import BACKENDS, make_simulator


@pytest.fixture(params=BACKENDS)
def sim(request):
    return make_simulator(request.param)


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_from_callback(self, sim):
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_zero_delay_from_callback_fires_same_run(self, sim):
        # A zero-delay event scheduled mid-dispatch lands in the bucket
        # currently being drained (the calendar's side-heap path).
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, fired.append, "second")

        sim.schedule(1.0, first)
        sim.schedule(1.0, fired.append, "pre-scheduled")
        sim.run()
        assert fired == ["first", "pre-scheduled", "second"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent_and_safe_after_firing(self, sim):
        handle = sim.schedule(0.1, lambda: None)
        sim.run()
        handle.cancel()
        handle.cancel()

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(0.1, fired.append, "keep1")
        handle = sim.schedule(0.2, fired.append, "drop")
        sim.schedule(0.3, fired.append, "keep2")
        handle.cancel()
        sim.run()
        assert fired == ["keep1", "keep2"]

    def test_cancelled_head_event_cannot_be_dispatched(self, sim):
        # Regression for the old double-heappop pattern: run() and
        # peek_next_time() each popped cancelled heads independently;
        # the unified drain helper must discard a cancelled head exactly
        # once and never dispatch it, no matter how the two interleave.
        fired = []
        head = sim.schedule(0.1, fired.append, "head")
        sim.schedule(0.2, fired.append, "next")
        head.cancel()
        assert sim.peek_next_time() == pytest.approx(0.2)
        head.cancel()  # re-cancel after the peek already swept it
        assert sim.peek_next_time() == pytest.approx(0.2)
        sim.run()
        assert fired == ["next"]
        stats = sim.resource_stats()
        assert stats["events_dispatched"] == 1
        assert stats["events_cancelled_dropped"] == 1  # dropped exactly once

    def test_cancel_mid_run_from_callback(self, sim):
        fired = []
        handle = sim.schedule(0.2, fired.append, "victim")
        sim.schedule(0.1, handle.cancel)
        sim.schedule(0.3, fired.append, "after")
        sim.run()
        assert fired == ["after"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        executed = sim.run(until=2.0)
        assert fired == ["early"]
        assert executed == 1
        assert sim.now == 2.0  # clock advanced to the horizon
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_exact_event_time_inclusive(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_guard(self, sim):
        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        executed = sim.run(max_events=50)
        assert executed == 50

    def test_chunked_run_matches_single_run(self):
        # The transfer loops run in until= chunks with peeks in between;
        # a suspended mid-batch calendar state must resume correctly.
        def drive(sim, chunk):
            fired = []
            for k in range(40):
                sim.schedule(0.013 * k + 0.0004, fired.append, k)
            if chunk is None:
                sim.run()
            else:
                while sim.peek_next_time() is not None:
                    sim.run(until=sim.now + chunk)
            return fired

        reference = drive(make_simulator("heap"), None)
        for backend in BACKENDS:
            for chunk in (0.25, 0.001, 0.0005):
                assert drive(make_simulator(backend),
                             chunk) == reference, (backend, chunk)

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(0.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_peek_next_time(self, sim):
        assert sim.peek_next_time() is None
        handle = sim.schedule(3.0, lambda: None)
        assert sim.peek_next_time() == 3.0
        handle.cancel()
        assert sim.peek_next_time() is None

    def test_peek_does_not_advance_anything(self, sim):
        # Peeking between run(until=) chunks must not commit the window:
        # an event scheduled afterwards at an earlier time still fires
        # first.
        fired = []
        sim.schedule(0.5, fired.append, "late")
        sim.run(until=0.1)
        assert sim.peek_next_time() == pytest.approx(0.5)
        sim.schedule(0.05, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_pending_events(self, sim):
        handles = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        assert sim.pending_events == 4
        handles[0].cancel()
        assert sim.pending_events == 3

    def test_handle_time_property(self, sim):
        handle = sim.schedule(4.5, lambda: None)
        assert handle.time == 4.5


class TestSchedulerSelection:
    def test_default_is_calendar(self):
        # The one backend src/ knows; the frozen benchmark worker guards
        # on this accessor and reads the stats key.
        assert default_scheduler() == "calendar"
        assert Simulator().resource_stats()["scheduler"] == "calendar"

    def test_explicit_selection(self):
        # Tests select the heap oracle through its one seam ...
        assert make_simulator("heap").resource_stats()["scheduler"] == "heap"
        assert make_simulator("calendar").resource_stats()["scheduler"] \
            == "calendar"
        # ... and the swap does not outlive the helper.
        assert Simulator().resource_stats()["scheduler"] == "calendar"

    def test_unknown_scheduler_rejected(self):
        # The runtime takes no scheduler name at all, known or not.
        for name in ("bogus", "heap", "calendar"):
            with pytest.raises(TypeError):
                Simulator(scheduler=name)


class TestHeapResourceCounters:
    """The heap oracle's cost signature: one push + one pop per event."""

    def test_counters_track_pushes_pops_and_dispatches(self):
        sim = make_simulator("heap")
        for index in range(5):
            sim.schedule(0.001 * index, lambda: None)
        sim.run()
        stats = sim.resource_stats()
        assert stats["scheduler"] == "heap"
        assert stats["heap_pushes"] == 5
        assert stats["heap_pops"] == 5
        assert stats["events_dispatched"] == 5
        assert stats["events_cancelled_dropped"] == 0

    def test_cancelled_events_counted_separately(self):
        sim = make_simulator("heap")
        keep = sim.schedule(0.001, lambda: None)
        drop = sim.schedule(0.002, lambda: None)
        drop.cancel()
        sim.run()
        assert not keep.cancelled
        stats = sim.resource_stats()
        assert stats["events_dispatched"] == 1
        assert stats["events_cancelled_dropped"] == 1
        assert stats["heap_pops"] == 2

    def test_peek_discards_count_as_cancelled_drops(self):
        sim = make_simulator("heap")
        sim.schedule(0.001, lambda: None).cancel()
        assert sim.peek_next_time() is None
        assert sim.resource_stats()["events_cancelled_dropped"] == 1


class TestCalendarResourceCounters:
    """The calendar's cost signature: O(1) bucket appends, ~no heap ops."""

    def test_near_horizon_events_never_touch_a_heap(self):
        sim = Simulator()
        for index in range(5):
            sim.schedule(0.001 * index, lambda: None)
        sim.run()
        stats = sim.resource_stats()
        assert stats["scheduler"] == "calendar"
        assert stats["events_dispatched"] == 5
        assert stats["bucket_inserts"] == 5
        assert stats["heap_pushes"] == 0
        assert stats["heap_pops"] == 0

    def test_same_bucket_events_dispatch_as_one_batch(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(0.0105, lambda: None)  # all in one 1 ms bucket
        sim.run()
        stats = sim.resource_stats()
        assert stats["events_dispatched"] == 100
        assert stats["batch_dispatches"] == 1

    def test_far_future_events_overflow_then_migrate(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.001, fired.append, "near")
        sim.schedule(30.0, fired.append, "far")  # beyond the ring horizon
        sim.run()
        assert fired == ["near", "far"]
        stats = sim.resource_stats()
        assert stats["heap_pushes"] == 1  # only the far event
        assert stats["overflow_migrations"] == 1

    def test_cancelled_events_counted(self):
        sim = Simulator()
        sim.schedule(0.001, lambda: None)
        sim.schedule(0.002, lambda: None).cancel()
        sim.run()
        stats = sim.resource_stats()
        assert stats["events_dispatched"] == 1
        assert stats["events_cancelled_dropped"] == 1
