"""The simulator's event queue: a calendar scheduler and its timer handle.

:class:`CalendarScheduler` is the one backend behind
:class:`~repro.netsim.core.Simulator`: a two-level calendar queue built
for the million-flow scale goals (ROADMAP items 2 and 5) -- a ring of
near-horizon buckets keyed by quantized virtual time plus a far-future
overflow heap.  Inserts inside the horizon are an O(1) list append;
whole buckets are dequeued and dispatched as one sorted batch instead
of popping events one at a time; cancellation is an O(1) tombstone
swept lazily at dispatch.

**Determinism contract** (DESIGN.md section 15).  Events dispatch in
strictly increasing ``(time, seq)`` order, where ``seq`` is a monotone
sequence number assigned at ``schedule()`` time -- equal-time events
fire in the order they were scheduled.  Bucket quantization uses
``int(time / BUCKET_WIDTH)``, which is monotone non-decreasing in
``time``, so bucketing can never reorder two events: it only decides
*which batch* an event is sorted into, and every batch is sorted by the
``(time, seq)`` key a plain binary heap would use.  That heap lives in
``tests/netsim/heap_oracle.py`` as the differential oracle: callbacks
run in the same order, consume sequence numbers in the same order, and
drive the RNGs identically, so traces are byte-identical against it
(``tests/netsim/test_scheduler_differential.py``).

The calendar queue's structural invariant: the ring window covers
absolute bucket indices ``[base, base + slots)``; events beyond it live
in the overflow heap and *migrate* into the ring when the window
advances past their bucket.  ``base`` only advances when a bucket is
committed for dispatch, and a bucket is only committed when its earliest
live event is actually due -- which keeps ``base`` at or behind
``bucket(now)`` whenever a callback (the only code that can insert
events mid-drain) runs, so no event can ever be scheduled behind the
window.

:class:`Timer` is the reusable handle the recurring clocks (quACK
emission, PTO, checkpoints, health staleness probes) arm themselves
with: one wheel-slot insert per rearm, the superseded arm left behind as
a tombstone -- no heap churn, no per-rearm handle allocation.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Quantum of the calendar ring: 1 ms of virtual time per bucket.
#: Packet-scale events (serialization, propagation) land a few buckets
#: apart; the recurring clocks (emission ~25 ms, PTO >= 100 ms) stay
#: well inside the horizon.
BUCKET_WIDTH = 1e-3

#: Ring size: 512 buckets x 1 ms = a 0.512 s near horizon.
WHEEL_SLOTS = 512

_UNLIMITED = sys.maxsize


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
    Each rearm is one wheel-slot insert; there is no per-rearm heap push
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

    def rearm_at(self, time: float) -> EventHandle:
        """Like :meth:`rearm`, at an absolute virtual time."""
        event = self._event
        if event is not None:
            event.cancelled = True
        self.rearms += 1
        self._event = self._sim.schedule_at(time, self._callback,
                                            *self._args)
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
    """Two-level calendar queue: near-horizon ring + far-future overflow.

    * **Ring**: :data:`WHEEL_SLOTS` buckets of :data:`BUCKET_WIDTH`
      seconds each,
      covering absolute bucket indices ``[base, base + slots)``.  Insert
      is an O(1) ``list.append``; a whole bucket is dequeued at once,
      sorted by ``(time, seq)``, and dispatched as a batch.
    * **Overflow heap**: events whose bucket lies beyond the ring window.
      When the window advances past an overflow event's bucket, the event
      migrates into its ring slot (still ahead of dispatch, so migration
      can never reorder).
    * **Active-bucket side heap**: events scheduled *into the bucket
      currently being dispatched* (zero-delay chains, same-tick rearms)
      go to a small heap merged with the sorted batch, preserving exact
      ``(time, seq)`` order.

    Cancellation tombstones in place; tombstones are swept (and counted
    in ``events_cancelled_dropped``) when a sweep, peek, or batch drain
    encounters them.
    """

    name = "calendar"

    def __init__(self) -> None:
        self._width = BUCKET_WIDTH
        self._slots = WHEEL_SLOTS
        self._ring: list[list[tuple[float, int, EventHandle]]] = \
            [[] for _ in range(self._slots)]
        self._ring_count = 0
        self._overflow: list[tuple[float, int, EventHandle]] = []
        #: Lowest absolute bucket index the ring window covers.
        self._base = 0
        #: One past the highest bucket the window covers (base + slots).
        self._fence = self._slots
        #: Lowest bucket that may hold a ring entry (scan start hint).
        self._scan_from = 0
        #: Absolute index of the bucket being dispatched, -1 when idle.
        self._active = -1
        self._batch: list[tuple[float, int, EventHandle]] = []
        self._batch_pos = 0
        self._extra: list[tuple[float, int, EventHandle]] = []
        self.events_dispatched = 0
        self.events_cancelled_dropped = 0
        #: Residual binary-heap traffic (overflow + active-bucket merge).
        self.heap_pushes = 0
        self.heap_pops = 0
        #: O(1) wheel-slot appends (the calendar-queue fast path).
        self.bucket_inserts = 0
        #: Whole-bucket batch dequeues.
        self.batch_dispatches = 0
        #: Far-future events that migrated overflow -> ring.
        self.overflow_migrations = 0

    # -- insert ---------------------------------------------------------------

    def bind_schedule(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused validate+allocate+insert closure for ``sim.schedule``.

        Bound as an instance attribute on the simulator: the scheduling
        hot path runs in one frame with cell-variable lookups.  The
        active bucket is always inside the fence, so one window compare
        routes the common case straight to a ring append; an event for
        the bucket currently being dispatched goes to the side heap so
        ``(time, seq)`` order survives mid-batch arrivals.
        """
        seq_next = sim._seq.__next__
        width = self._width
        slots = self._slots
        ring = self._ring
        extra = self._extra
        overflow = self._overflow

        def schedule(delay: float, callback: Callable[..., None],
                     *args: Any) -> EventHandle:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}")
            time = sim._now + delay
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            idx = int(time / width)
            if idx < self._fence:
                if idx == self._active:
                    heappush(extra, (time, seq, event))
                    self.heap_pushes += 1
                else:
                    ring[idx % slots].append((time, seq, event))
                    self._ring_count += 1
                    self.bucket_inserts += 1
                    if idx < self._scan_from:
                        self._scan_from = idx
            else:
                heappush(overflow, (time, seq, event))
                self.heap_pushes += 1
            return event

        return schedule

    def bind_schedule_at(self, sim: Any) -> Callable[..., EventHandle]:
        """Fused absolute-time variant of :meth:`bind_schedule`."""
        seq_next = sim._seq.__next__
        width = self._width
        slots = self._slots
        ring = self._ring
        extra = self._extra
        overflow = self._overflow

        def schedule_at(time: float, callback: Callable[..., None],
                        *args: Any) -> EventHandle:
            now = sim._now
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time:.9f}, "
                    f"current time is {now:.9f}")
            seq = seq_next()
            event = EventHandle(time, seq, callback, args)
            idx = int(time / width)
            if idx < self._fence:
                if idx == self._active:
                    heappush(extra, (time, seq, event))
                    self.heap_pushes += 1
                else:
                    ring[idx % slots].append((time, seq, event))
                    self._ring_count += 1
                    self.bucket_inserts += 1
                    if idx < self._scan_from:
                        self._scan_from = idx
            else:
                heappush(overflow, (time, seq, event))
                self.heap_pushes += 1
            return event

        return schedule_at

    # -- batch selection --------------------------------------------------------

    def _find_nonempty(self) -> int:
        """Lowest ring bucket holding entries (``_ring_count`` > 0)."""
        ring = self._ring
        slots = self._slots
        idx = self._scan_from
        while not ring[idx % slots]:
            idx += 1
        self._scan_from = idx
        return idx

    def _migrate(self, base: int) -> None:
        """Pull overflow events whose bucket entered the ring window."""
        overflow = self._overflow
        if not overflow:
            return
        width = self._width
        fence = base + self._slots
        ring = self._ring
        slots = self._slots
        migrated = 0
        while overflow:
            head = overflow[0]
            idx = int(head[0] / width)
            if idx >= fence:
                break
            heappop(overflow)
            self.heap_pops += 1
            ring[idx % slots].append(head)
            self._ring_count += 1
            migrated += 1
            if idx < self._scan_from:
                self._scan_from = idx
        self.overflow_migrations += migrated

    def _next_batch(self, horizon: float) -> bool:
        """Commit the next due bucket as the active batch.

        Commits (advances ``base``, migrates overflow, extracts and sorts
        the slot) only when the bucket's earliest entry is at or before
        ``horizon`` -- a not-yet-due bucket is left untouched so the
        window never advances ahead of the clock across ``run(until=)``
        boundaries.  Returns False when nothing is due.
        """
        width = self._width
        while True:
            if self._ring_count:
                idx = self._find_nonempty()
                slot = self._ring[idx % self._slots]
                first = min(slot)
                if first[0] > horizon:
                    return False
            else:
                overflow = self._overflow
                while overflow and overflow[0][2].cancelled:
                    heappop(overflow)
                    self.heap_pops += 1
                    self.events_cancelled_dropped += 1
                if not overflow:
                    return False
                if overflow[0][0] > horizon:
                    return False
                idx = int(overflow[0][0] / width)
            # Commit: advance the window, migrate newly-covered overflow
            # events (including into bucket ``idx`` itself), then take
            # the whole bucket as one sorted batch.
            self._base = idx
            self._fence = idx + self._slots
            self._migrate(idx)
            slot = self._ring[idx % self._slots]
            self._ring[idx % self._slots] = []
            self._ring_count -= len(slot)
            self._scan_from = idx + 1
            if not slot:  # pragma: no cover - overflow path always migrates
                continue
            slot.sort()
            self._batch = slot
            self._batch_pos = 0
            self._active = idx
            self.batch_dispatches += 1
            return True

    # -- drain ----------------------------------------------------------------

    def drain(self, sim: Any, until: float | None,
              max_events: int | None) -> int:
        horizon = until if until is not None else float("inf")
        limit = max_events if max_events is not None else _UNLIMITED
        executed = 0
        dropped = 0
        extra_pops = 0
        extra = self._extra
        suspended = False
        while True:
            if self._active < 0 and not self._next_batch(horizon):
                break
            batch = self._batch
            pos = self._batch_pos
            size = len(batch)
            while True:
                # Fast path: no mid-batch arrivals pending, so the head
                # is simply the next entry of the sorted batch.
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
                    sim._now = time
                    event.callback(*event.args)
                    executed += 1
                if suspended:
                    break
                # Merge path: head = min of the batch remainder and the
                # side heap of mid-batch arrivals.
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
                sim._now = entry[0]
                event.callback(*event.args)
                executed += 1
            self._batch_pos = pos
            if suspended:
                break
            # Batch complete: retire it and move to the next bucket.
            self._active = -1
            self._batch = []
            self._batch_pos = 0
        self.events_dispatched += executed
        self.events_cancelled_dropped += dropped
        self.heap_pops += extra_pops
        return executed

    # -- introspection -----------------------------------------------------------

    def peek_time(self) -> float | None:
        """Virtual time of the next live event (sweeps tombstones).

        Never advances the window: suspended ``run(until=)`` loops peek
        between chunks, and committing here could move ``base`` ahead of
        buckets that future ``schedule()`` calls still target.
        """
        best: tuple[float, int, EventHandle] | None = None
        if self._active >= 0:
            batch = self._batch
            pos = self._batch_pos
            size = len(batch)
            while pos < size and batch[pos][2].cancelled:
                pos += 1
                self.events_cancelled_dropped += 1
            self._batch_pos = pos
            extra = self._extra
            while extra and extra[0][2].cancelled:
                heappop(extra)
                self.heap_pops += 1
                self.events_cancelled_dropped += 1
            if pos < size:
                best = batch[pos]
            if extra and (best is None or extra[0] < best):
                best = extra[0]
            if best is not None:
                return best[0]
            # The suspended batch was all tombstones: retire it.
            self._active = -1
            self._batch = []
            self._batch_pos = 0
        if self._ring_count:
            ring = self._ring
            slots = self._slots
            idx = self._scan_from
            for _ in range(slots + 1):
                slot = ring[idx % slots]
                if slot:
                    live = [e for e in slot if not e[2].cancelled]
                    dead = len(slot) - len(live)
                    if dead:
                        ring[idx % slots] = live
                        self._ring_count -= dead
                        self.events_cancelled_dropped += dead
                    if live:
                        self._scan_from = idx
                        return min(live)[0]
                if not self._ring_count:
                    break
                idx += 1
                self._scan_from = idx
        overflow = self._overflow
        while overflow and overflow[0][2].cancelled:
            heappop(overflow)
            self.heap_pops += 1
            self.events_cancelled_dropped += 1
        return overflow[0][0] if overflow else None

    def pending(self) -> int:
        live = sum(1 for e in self._batch[self._batch_pos:]
                   if not e[2].cancelled)
        live += sum(1 for e in self._extra if not e[2].cancelled)
        for slot in self._ring:
            live += sum(1 for e in slot if not e[2].cancelled)
        live += sum(1 for e in self._overflow if not e[2].cancelled)
        return live

    def stats(self) -> dict[str, int]:
        return {
            "events_dispatched": self.events_dispatched,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "events_cancelled_dropped": self.events_cancelled_dropped,
            "bucket_inserts": self.bucket_inserts,
            "batch_dispatches": self.batch_dispatches,
            "overflow_migrations": self.overflow_migrations,
        }

