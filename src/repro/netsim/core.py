"""A small discrete-event simulator.

This is the substrate on which the sidecar protocols (paper, Section 2)
are exercised: hosts, proxies, and links are processes exchanging packets
in virtual time.  The simulator owns the clock, ``sim.now``; the event
queue is the calendar scheduler of :mod:`repro.netsim.sched` (buckets of
1 ms of virtual time, each dispatched as one sorted batch, the next
non-empty one found through a heap of bucket ids), and it is the only
writer of the clock.

Virtual time is in float seconds.  Events at equal times fire in the order
they were scheduled (a monotonic sequence number breaks ties), which keeps
runs deterministic for a fixed seed -- see DESIGN.md section 12 for the
determinism contract and ``tests/netsim/heap_oracle.py`` for the binary
heap the differential suites hold the calendar queue to.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.errors import SimulationError
from repro.netsim.sched import (  # noqa: F401  (re-exported surface)
    CalendarScheduler,
    EventHandle,
    Timer,
)


def default_scheduler() -> str:
    """Name of the backend every ``Simulator()`` runs on."""
    return CalendarScheduler.name


class Simulator:
    """Event loop for virtual-time simulation.

    The loop keeps always-on resource counters (one integer add per
    operation): ``events_dispatched`` callbacks executed,
    ``heap_pushes``/``heap_pops`` binary-heap operations on events (for
    the calendar queue only mid-batch arrivals, so the ratio of heap ops
    to dispatched events is the cost signature it beats a plain heap
    on), and
    ``events_cancelled_dropped`` cancelled events discarded
    without running.  The repo benchmark reads them as
    ``netsim.heap_ops_per_event``.
    """

    #: ``schedule(delay, callback, *args)`` runs ``callback(*args)`` after
    #: ``delay`` seconds of virtual time; ``schedule_at(time, ...)`` at an
    #: absolute virtual time.  Both reject the past with
    #: :class:`~repro.errors.SimulationError` and return the event's
    #: cancellable handle.  Bound per instance in ``__init__``.
    schedule: Callable[..., EventHandle]
    schedule_at: Callable[..., EventHandle]

    def __init__(self) -> None:
        self._sched = CalendarScheduler()
        self._seq = itertools.count()
        #: Current virtual time, in seconds.  Written only by the
        #: scheduler: as each event dispatches, and to ``until`` when a
        #: bounded run ends.
        self.now = 0.0
        self._running = False
        # Fused fast paths: the backend supplies one-frame closures that
        # validate, allocate the handle, and place the entry without a
        # second method dispatch.
        self.schedule = self._sched.bind_schedule(self)
        self.schedule_at = self._sched.bind_schedule_at(self)

    def timer(self, callback: Callable[..., None], *args: Any) -> Timer:
        """A reusable rearm-able timer bound to ``callback(*args)``.

        The handle of choice for recurring clocks (emission, PTO,
        checkpoints): one bucket append per :meth:`Timer.rearm`, the
        superseded arm tombstoned in place.
        """
        return Timer(self, callback, *args)

    def run(self, until: float | None = None,
            max_events: int | None = None) -> int:
        """Drain the event queue.

        Stops when the queue empties, when the next event lies beyond
        ``until`` (the clock then advances to exactly ``until``), or after
        ``max_events`` callbacks (a runaway guard for tests).  Returns the
        number of callbacks executed.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event callback")
        self._running = True
        try:
            return self._sched.drain(self, until, max_events)
        finally:
            self._running = False

    def peek_next_time(self) -> float | None:
        """Virtual time of the next live event, or None if idle."""
        return self._sched.peek_time()

    # -- resource counters (delegated to the backend) ---------------------------

    @property
    def events_dispatched(self) -> int:
        return self._sched.events_dispatched

    @property
    def heap_pushes(self) -> int:
        return self._sched.heap_pushes

    @property
    def heap_pops(self) -> int:
        return self._sched.heap_pops

    @property
    def events_cancelled_dropped(self) -> int:
        return self._sched.events_cancelled_dropped

    def resource_stats(self) -> dict[str, Any]:
        """The loop's always-on resource counters, as a plain dict.

        The four classic counters plus the calendar queue's
        ``bucket_inserts`` and ``batch_dispatches``.  ``scheduler`` names
        the backend.
        """
        stats: dict[str, Any] = {"scheduler": self._sched.name}
        stats.update(self._sched.stats())
        return stats
