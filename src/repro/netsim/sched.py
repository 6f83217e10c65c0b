"""The simulator's event queue: a calendar scheduler and its timer handle.

:class:`CalendarScheduler` is the one backend behind
:class:`~repro.netsim.core.Simulator`: a calendar queue whose buckets
are keyed by quantized virtual time, ``int(time / BUCKET_WIDTH)``.  An
insert is a list append into its bucket; a whole bucket is dequeued,
sorted by ``(time, seq)`` and dispatched as one batch; cancellation is
an O(1) tombstone swept at dispatch.  The next bucket comes from a small
heap of the ids of the non-empty buckets, so empty stretches of virtual
time cost nothing and a far-future event is an ordinary bucket.

**Determinism contract** (DESIGN.md section 12).  Events dispatch in
strictly increasing ``(time, seq)`` order, where ``seq`` is a monotone
sequence number assigned at ``schedule()`` time -- equal-time events
fire in the order they were scheduled.  Bucketing is monotone in
``time``, so it only decides *which batch* an event is sorted into, and
every batch is sorted by the key a plain binary heap would use.  That
heap lives in ``tests/netsim/heap_oracle.py`` as the differential
oracle: callbacks run in the same order, consume sequence numbers in the
same order and drive the RNGs identically, so traces are byte-identical
against it (``tests/netsim/test_scheduler_differential.py``).

:class:`Timer` is the reusable handle the recurring clocks (quACK
emission, PTO, checkpoints, health staleness probes) arm themselves
with: one bucket append per rearm, the superseded arm left behind as a
tombstone -- no heap churn, no per-rearm handle allocation.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Quantum of the calendar: 1 ms of virtual time per bucket.  Packet
#: arrivals (serialization plus propagation ahead) land a few buckets
#: apart; events closer than this share one sorted batch.
BUCKET_WIDTH = 1e-3

_UNLIMITED = sys.maxsize

_Entry = tuple[float, int, "EventHandle"]


class EventHandle:
    """One scheduled event; doubles as its own cancellable handle.

    ``cancel()`` is an O(1) tombstone: the event stays in whatever
    structure holds it and is discarded (and counted) when the scheduler
    next encounters it.  Safe after firing, idempotent.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent, safe after firing)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Timer:
    """Reusable rearm-able timer for recurring clocks.

    A periodic clock (emission tick, PTO, checkpoint) holds one
    :class:`Timer` for its whole life and calls :meth:`rearm` each
    period; the previous arm (if still pending) is tombstoned in place.
    Each rearm is one bucket append; there is no per-rearm heap push
    and no cancelled-entry heap pop.
    Rearming from inside the timer's own callback is the normal case.
    """

    __slots__ = ("_sim", "_callback", "_args", "_event", "rearms")

    def __init__(self, sim: "Any", callback: Callable[..., None],
                 *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: EventHandle | None = None
        #: Total rearms over this timer's life (resource accounting).
        self.rearms = 0

    def rearm(self, delay: float) -> EventHandle:
        """Arm (or re-arm) the timer ``delay`` seconds from now.

        Supersedes any pending arm: exactly one firing is outstanding
        after this call.  Returns the handle of the new arm.
        """
        event = self._event
        if event is not None:
            event.cancelled = True
        self.rearms += 1
        self._event = self._sim.schedule(delay, self._callback, *self._args)
        return self._event

    def cancel(self) -> None:
        """Tombstone the pending arm, if any (idempotent)."""
        event = self._event
        if event is not None:
            event.cancelled = True
            self._event = None

    @property
    def next_fire_time(self) -> float | None:
        """Virtual time of the pending arm (None when not armed).

        Note a fired-and-not-rearmed timer reports its *last* fire time;
        recurring clocks rearm from their own callback, so in practice a
        live clock always reports its next tick.
        """
        event = self._event
        if event is None or event.cancelled:
            return None
        return event.time


class CalendarScheduler:
    """Calendar queue: buckets by absolute id, the non-empty ids on a heap.

    * **Buckets**: a dict from bucket id (``int(time / BUCKET_WIDTH)``)
      to an unsorted list of ``(time, seq, event)`` entries.  Insert is
      an O(1) ``list.append``; a new bucket also pushes its id.
    * **Bucket-id heap**: the ids of the non-empty buckets; its head is
      the next bucket to run, however far ahead it lies.
    * **Active-bucket side heap**: events scheduled *into the bucket
      being dispatched* (zero-delay chains, same-tick rearms) go to a
      small heap merged with the sorted batch, preserving exact
      ``(time, seq)`` order.  ``heap_pushes``/``heap_pops`` count it.

    Cancellation tombstones in place; tombstones are swept (and counted
    in ``events_cancelled_dropped``) when a peek or a batch drain meets
    them.
    """

    name = "calendar"

    def __init__(self) -> None:
        self._buckets: dict[int, list[_Entry]] = {}
        self._ids: list[int] = []
        #: Id of the bucket being dispatched, -1 outside :meth:`drain`.
        self._active = -1
        self._extra: list[_Entry] = []
        self.events_dispatched = 0
        self.events_cancelled_dropped = 0
        #: Active-bucket side-heap traffic.
        self.heap_pushes = 0
        self.heap_pops = 0
        #: O(1) bucket appends (the calendar-queue fast path).
        self.bucket_inserts = 0
        #: Whole-bucket batch dequeues.
        self.batch_dispatches = 0

    # -- insert ---------------------------------------------------------------

    def bind_schedule(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused validate+allocate+insert closure for ``sim.schedule``.

        Bound as an instance attribute on the simulator: the scheduling
        hot path runs in one frame with cell-variable lookups.  An event
        for the bucket being dispatched goes to the side heap so
        ``(time, seq)`` order survives mid-batch arrivals.
        """
        seq_next = sim._seq.__next__
        buckets = self._buckets
        ids = self._ids
        extra = self._extra

        def schedule(delay: float, callback: Callable[..., None],
                     *args: Any) -> EventHandle:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}")
            time = sim.now + delay
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            idx = int(time / BUCKET_WIDTH)
            if idx == self._active:
                heappush(extra, (time, seq, event))
                self.heap_pushes += 1
            else:
                if idx in buckets:
                    buckets[idx].append((time, seq, event))
                else:
                    buckets[idx] = [(time, seq, event)]
                    heappush(ids, idx)
                self.bucket_inserts += 1
            return event

        return schedule

    def bind_schedule_at(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused absolute-time variant of :meth:`bind_schedule`."""
        seq_next = sim._seq.__next__
        buckets = self._buckets
        ids = self._ids
        extra = self._extra

        def schedule_at(time: float, callback: Callable[..., None],
                        *args: Any) -> EventHandle:
            now = sim.now
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time:.9f}, "
                    f"current time is {now:.9f}")
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            idx = int(time / BUCKET_WIDTH)
            if idx == self._active:
                heappush(extra, (time, seq, event))
                self.heap_pushes += 1
            else:
                if idx in buckets:
                    buckets[idx].append((time, seq, event))
                else:
                    buckets[idx] = [(time, seq, event)]
                    heappush(ids, idx)
                self.bucket_inserts += 1
            return event

        return schedule_at

    # -- drain ----------------------------------------------------------------

    def drain(self, sim: Any, until: float | None,
              max_events: int | None) -> int:
        """Run due events in ``(time, seq)`` order; the clock's only writer.

        Takes the lowest bucket out as a sorted batch once its earliest
        entry is due, and stops at the first live event past ``until``
        (the clock then reads ``until``) or after ``max_events``
        callbacks.  What a batch leaves goes back as an ordinary bucket,
        so between runs every pending event sits in a bucket and a later
        ``schedule()`` into it is an append like any other.
        """
        horizon = until if until is not None else float("inf")
        limit = max_events if max_events is not None else _UNLIMITED
        buckets = self._buckets
        ids = self._ids
        extra = self._extra
        executed = 0
        dropped = 0
        extra_pops = 0
        while ids:
            idx = ids[0]
            batch = buckets[idx]
            batch.sort()
            if batch[0][0] > horizon:
                break
            heappop(ids)
            del buckets[idx]
            self._active = idx
            self.batch_dispatches += 1
            pos = 0
            size = len(batch)
            suspended = False
            try:
                while True:
                    # Fast path: no mid-batch arrivals pending, so the
                    # head is simply the next entry of the sorted batch.
                    while pos < size and not extra:
                        entry = batch[pos]
                        event = entry[2]
                        if event.cancelled:
                            pos += 1
                            dropped += 1
                            continue
                        time = entry[0]
                        if time > horizon or executed >= limit:
                            suspended = True
                            break
                        pos += 1
                        sim.now = time
                        event.callback(*event.args)
                        executed += 1
                    if suspended:
                        break
                    # Merge path: head = min of the batch remainder and
                    # the side heap of mid-batch arrivals.
                    if pos < size:
                        entry = batch[pos]
                        if extra and extra[0] < entry:
                            entry = extra[0]
                            from_extra = True
                        else:
                            from_extra = False
                    elif extra:
                        entry = extra[0]
                        from_extra = True
                    else:
                        break  # bucket exhausted
                    event = entry[2]
                    if event.cancelled:
                        if from_extra:
                            heappop(extra)
                            extra_pops += 1
                        else:
                            pos += 1
                        dropped += 1
                        continue
                    if entry[0] > horizon or executed >= limit:
                        suspended = True
                        break
                    if from_extra:
                        heappop(extra)
                        extra_pops += 1
                    else:
                        pos += 1
                    sim.now = entry[0]
                    event.callback(*event.args)
                    executed += 1
            finally:
                # Whatever the batch did not run -- a suspension or a
                # raising callback -- becomes an ordinary bucket again.
                self._active = -1
                if pos < size or extra:
                    rest = batch[pos:]
                    rest += extra
                    extra.clear()
                    buckets[idx] = rest
                    heappush(ids, idx)
            if suspended:
                break
        if until is not None and sim.now < until:
            sim.now = until
        self.events_dispatched += executed
        self.events_cancelled_dropped += dropped
        self.heap_pops += extra_pops
        return executed

    # -- introspection -----------------------------------------------------------

    def peek_time(self) -> float | None:
        """Virtual time of the next live event (sweeps tombstones)."""
        buckets = self._buckets
        ids = self._ids
        while ids:
            idx = ids[0]
            bucket = buckets[idx]
            live = [entry for entry in bucket if not entry[2].cancelled]
            if len(live) < len(bucket):
                self.events_cancelled_dropped += len(bucket) - len(live)
                buckets[idx] = live
            if live:
                return min(live)[0]
            heappop(ids)
            del buckets[idx]
        return None

    def stats(self) -> dict[str, int]:
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "events_cancelled_dropped": self.events_cancelled_dropped,
            "bucket_inserts": self.bucket_inserts,
            "batch_dispatches": self.batch_dispatches,
        }
