"""Hierarchical wall-clock profiling: call-path spans with self/cum time.

Unlike trace events (stamped with *virtual* time), spans measure the
*real* cost of the hot paths the paper benchmarks in Tables 2-3: the
power-sum update, Newton's identities, root finding, and wire
encode/decode.  Each completed span is attributed to its **call path**
-- the chain of enclosing spans on the current thread, e.g.
``("quack.decode", "quack.newton")`` -- accumulating per-path call
counts, cumulative (wall) time, *self* time (cumulative minus time spent
in child spans), and, when allocation tracking is on, net
``tracemalloc`` byte deltas.  Spans stay out of the metrics registry:
everything in ``obs.METRICS`` is virtual-time and reproduces run to run.

The per-path aggregate is what :mod:`repro.obs.perf` exports as a
collapsed-stack flamegraph (``repro trace <scenario> --flame``) and a
JSON profile snapshot, what the report's time section lists, and what
``repro diff`` ranks between runs.

Two usage styles:

* explicit, for per-packet paths where even a context manager is too
  much overhead when profiling is off::

      _prof = PROFILER
      t0 = _prof.begin("quack.newton")  # 0.0 when disabled (skip the end)
      ... the hot work ...
      if t0:
          _prof.end("quack.newton", t0)

* scoped, for everything else::

      with PROFILER.span("report.section"):
          ...

The disabled fast path of :meth:`Profiler.begin` is one attribute load
and a branch, which is what the decode-overhead bench guard measures;
the hierarchical bookkeeping only runs on the enabled path.

Exception safety: :meth:`Profiler.span` closes its frame from a
``finally`` block, so an exception raised inside a scoped span unwinds
the stack correctly.  An explicit ``begin`` abandoned by an exception
(its ``end`` never ran) leaves an orphan frame; the next ``end`` on
that thread discards orphans above its own frame, so one lost span
cannot corrupt attribution for the rest of the run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("path", "child_seconds", "alloc0")

    def __init__(self, path: tuple[str, ...], alloc0: int | None) -> None:
        self.path = path
        self.child_seconds = 0.0
        self.alloc0 = alloc0


class SpanStat:
    """Aggregate for one call path: counts, cum/self time, allocations."""

    __slots__ = ("path", "calls", "cum_seconds", "self_seconds",
                 "alloc_bytes")

    def __init__(self, path: tuple[str, ...]) -> None:
        self.path = path
        self.calls = 0
        self.cum_seconds = 0.0
        self.self_seconds = 0.0
        self.alloc_bytes = 0

    @property
    def name(self) -> str:
        return self.path[-1]

    def to_dict(self) -> dict:
        return {
            "path": ";".join(self.path),
            "name": self.name,
            "calls": self.calls,
            "cum_s": self.cum_seconds,
            "self_s": self.self_seconds,
            "alloc_bytes": self.alloc_bytes,
        }


class Profiler:
    """Collects hierarchical span durations per call path."""

    __slots__ = ("enabled", "allocations", "_stats", "_local",
                 "_started_tracemalloc")

    def __init__(self) -> None:
        self.enabled = False
        self.allocations = False
        self._stats: dict[tuple[str, ...], SpanStat] = {}
        self._local = threading.local()
        self._started_tracemalloc = False

    # -- lifecycle -------------------------------------------------------

    def configure(self, allocations: bool = False) -> None:
        """Switch profiling on.

        ``allocations=True`` additionally attributes net ``tracemalloc``
        byte deltas to each call path (starting the tracer if it is not
        already running; :meth:`disable` stops it again iff this call
        started it).  Allocation tracking is expensive -- leave it off
        for timing-sensitive runs.
        """
        self.allocations = allocations
        if allocations:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        self.allocations = False

    def reset(self) -> None:
        """Drop accumulated path stats and any open frames."""
        self._stats = {}
        self._local.stack = []

    # -- hot path --------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str = "") -> float:
        """Span start marker: 0.0 when disabled (falsy; skip the end).

        ``name`` must match the ``name`` later passed to :meth:`end`;
        it keys the frame this call pushes onto the thread's span stack.
        """
        if not self.enabled:
            return 0.0
        stack = self._stack()
        parent = stack[-1].path if stack else ()
        alloc0 = None
        if self.allocations:
            import tracemalloc

            alloc0 = tracemalloc.get_traced_memory()[0]
        stack.append(_Frame(parent + (name,), alloc0))
        return perf_counter()

    def end(self, name: str, started: float) -> None:
        """Close a span opened by :meth:`begin` (no-op if disabled since)."""
        if not self.enabled:
            return
        elapsed = perf_counter() - started
        stack = self._stack()
        frame = None
        while stack:
            candidate = stack.pop()
            if candidate.path[-1] == name:
                frame = candidate
                break
            # An orphan: its begin ran but an exception skipped its end.
            # Discard it; its time is folded into this span's elapsed.
        if frame is None:
            # end without a live begin (e.g. begin ran while disabled):
            # record flat at the root so the sample is not lost.
            path = (name,)
            self_seconds = elapsed
        else:
            path = frame.path
            self_seconds = elapsed - frame.child_seconds
            if self_seconds < 0.0:
                self_seconds = 0.0
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = SpanStat(path)
        stat.calls += 1
        stat.cum_seconds += elapsed
        stat.self_seconds += self_seconds
        if frame is not None and frame.alloc0 is not None:
            import tracemalloc

            stat.alloc_bytes += tracemalloc.get_traced_memory()[0] \
                - frame.alloc0
        if stack:
            stack[-1].child_seconds += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Scoped convenience form for non-hot paths (exception-safe)."""
        started = self.begin(name)
        try:
            yield
        finally:
            if started:
                self.end(name, started)

    # -- read side -------------------------------------------------------

    def path_stats(self) -> dict[tuple[str, ...], SpanStat]:
        """The accumulated per-call-path aggregates (live references)."""
        return self._stats

    @property
    def depth(self) -> int:
        """Open frames on the calling thread (0 when balanced)."""
        return len(getattr(self._local, "stack", ()))
