"""The binary-heap event queue: the scheduler differential oracle.

The runtime knows one backend, the calendar queue in
:mod:`repro.netsim.sched`.  This is the classic one-``heappush``-per-
event heap it replaced, kept here -- outside ``src/`` -- as the
reference the differential suites compare against: the calendar queue
must reproduce its dispatch order byte for byte.

One seam substitutes it: :func:`backend` swaps the one class name
:mod:`repro.netsim.core` instantiates, so every ``Simulator()``
constructed inside the ``with`` block -- directly or deep inside a
scenario entry point -- runs on the heap.  The swap is this process's
only (a spawned pool worker imports the runtime as it is), so heap runs
stay in-process (``workers=1``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.errors import SimulationError
from repro.netsim import core
from repro.netsim.core import Simulator
from repro.netsim.sched import EventHandle

_UNLIMITED = sys.maxsize

BACKENDS = ["heap", "calendar"]


class HeapScheduler:
    """The legacy binary-heap event queue (the differential oracle).

    Entries are ``(time, seq, event)`` tuples so heap comparisons stay in
    C (``seq`` is unique; the event object is never compared).  Cancelled
    events are swept by :meth:`_drop_cancelled_head`, the *single* drain
    helper both the run loop and ``peek_time`` share -- a cancelled head
    is discarded exactly once, counted exactly once, and can never be
    dispatched.
    """

    name = "heap"

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.events_cancelled_dropped = 0

    def insert(self, event: EventHandle) -> None:
        heappush(self._heap, (event.time, event.seq, event))
        self.heap_pushes += 1

    def bind_schedule(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused validate+allocate+insert closure for ``sim.schedule``.

        Bound as an instance attribute on the simulator: the scheduling
        hot path runs in one frame with cell-variable lookups instead of
        two method dispatches and repeated attribute loads.
        """
        seq_next = sim._seq.__next__
        heap = self._heap

        def schedule(delay: float, callback: Callable[..., None],
                     *args: Any) -> EventHandle:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}")
            time = sim.now + delay
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            heappush(heap, (time, seq, event))
            self.heap_pushes += 1
            return event

        return schedule

    def bind_schedule_at(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused absolute-time variant of :meth:`bind_schedule`."""
        seq_next = sim._seq.__next__
        heap = self._heap

        def schedule_at(time: float, callback: Callable[..., None],
                        *args: Any) -> EventHandle:
            now = sim.now
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time:.9f}, "
                    f"current time is {now:.9f}")
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            heappush(heap, (time, seq, event))
            self.heap_pushes += 1
            return event

        return schedule_at

    def _drop_cancelled_head(self) -> None:
        """Discard tombstoned events from the head of the heap.

        The one place cancelled events leave the queue: ``drain`` and
        ``peek_time`` both call it, so neither can double-pop around the
        other or dispatch a cancelled head.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self.heap_pops += 1
            self.events_cancelled_dropped += 1

    def drain(self, sim: Any, until: float | None,
              max_events: int | None) -> int:
        horizon = until if until is not None else float("inf")
        limit = max_events if max_events is not None else _UNLIMITED
        heap = self._heap
        executed = 0
        while heap:
            self._drop_cancelled_head()
            if not heap:
                break
            entry = heap[0]
            if entry[0] > horizon or executed >= limit:
                break
            heappop(heap)
            self.heap_pops += 1
            event = entry[2]
            sim.now = entry[0]
            event.callback(*event.args)
            executed += 1
        if until is not None and sim.now < until:
            sim.now = until
        self.events_dispatched += executed
        return executed

    def peek_time(self) -> float | None:
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def stats(self) -> dict[str, int]:
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "events_cancelled_dropped": self.events_cancelled_dropped,
        }


@contextmanager
def backend(name: str) -> Iterator[None]:
    """Every ``Simulator()`` constructed inside runs on backend ``name``:
    ``"heap"`` swaps the oracle in, ``"calendar"`` is the runtime as it is."""
    runtime = core.CalendarScheduler
    core.CalendarScheduler = {"heap": HeapScheduler,
                              "calendar": runtime}[name]
    try:
        yield
    finally:
        core.CalendarScheduler = runtime


def make_simulator(name: str) -> Simulator:
    """A simulator on ``"heap"`` (the oracle) or ``"calendar"`` (runtime)."""
    with backend(name):
        return Simulator()
