"""Flight recorder: post-mortem dumps of the trace ring on failure.

A chaos-invariant violation or a ``WireFormatError`` usually surfaces
long after the interesting packets flew.  When armed, the flight
recorder snapshots the last-N events of the live trace ring -- plus the
implicated packet's full lifecycle span tree -- into a JSONL artifact
the moment the failure is noticed, so the evidence survives even though
the ring keeps rolling.

Dump layout (one JSON object per line):

1. a ``{"kind": "flight-recorder", ...}`` header (reason, scenario,
   event/drop counts, implicated context id);
2. the buffered trace events up to the trigger's virtual time,
   schema-valid records exactly as a normal JSONL export would write
   them;
3. optional caller-supplied extra records (e.g. the violated invariant
   strings);
4. a ``{"kind": "span-tree", ...}`` record carrying the implicated
   packet's assembled span tree, when one can be identified.

The recorder is a process-wide singleton (``repro.obs.FLIGHT``),
disarmed by default; the armed check at the hook sites is one attribute
load, mirroring the tracing guard.  Filenames are sequence-numbered
(never timestamped) so a fixed-seed failing run produces the same
artifact name every time.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from repro.obs.schema import as_record
from repro.obs.trace import TraceEvent


class FlightRecorder:
    """Dumps the trace ring (plus span context) to JSONL on failure."""

    __slots__ = ("armed", "directory", "last_n", "dumps", "_seq")

    def __init__(self) -> None:
        self.armed = False
        self.directory = "."
        self.last_n = 512
        #: Paths written since the last :meth:`configure`.
        self.dumps: list[str] = []
        self._seq = 0

    def configure(self, directory: str, last_n: int = 512) -> None:
        """Arm the recorder; dumps land in ``directory``."""
        if last_n < 1:
            from repro.errors import ObservabilityError
            raise ObservabilityError(
                f"flight recorder needs last_n >= 1, got {last_n}")
        self.directory = directory
        self.last_n = last_n
        self.dumps = []
        self._seq = 0
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def trigger(self, reason: str, *, scenario: str = "",
                time: float | None = None,
                detail: str = "",
                implicated_ctx: int | None = None,
                events: Iterable[TraceEvent] | None = None,
                extra_records: Sequence[dict] = ()) -> str | None:
        """Write one dump; returns its path (None when disarmed).

        ``events`` defaults to the live tracer's ring; records stamped
        after ``time`` (when given) are left out.  When no
        ``implicated_ctx`` is given, the first un-delivered span in the
        buffer is elected -- the packet most likely to explain why the
        run went wrong.
        """
        if not self.armed:
            return None
        from repro import obs
        from repro.obs.causal import build_span_trees

        if events is None:
            events = obs.TRACER.events
            dropped = obs.TRACER.sink.dropped if obs.TRACER.sink else 0
        else:
            dropped = 0
        buffered = [as_record(event) for event in events]
        if time is not None:
            # A record stamped after the trigger is a departure a link
            # has scheduled but not reached: it has not happened yet.
            buffered = [record for record in buffered if record["t"] <= time]
        window = buffered[-self.last_n:]

        analysis = build_span_trees(window)
        implicated = None
        if implicated_ctx is not None:
            implicated = analysis.spans.get(implicated_ctx)
        if implicated is None:
            implicated = next((root for root in analysis.roots
                               if not root.delivered_in_tree), None)

        self._seq += 1
        stem = f"flight-{self._seq:03d}-{reason}"
        if scenario:
            stem += f"-{scenario}"
        path = os.path.join(self.directory,
                            "".join(c if c.isalnum() or c in "-_." else "_"
                                    for c in stem) + ".jsonl")
        os.makedirs(self.directory, exist_ok=True)
        header = {
            "kind": "flight-recorder",
            "schema": 1,
            "reason": reason,
            "scenario": scenario,
            "detail": detail,
            "t": time,
            "events": len(window),
            "dropped_before_window": dropped + (len(buffered) - len(window)),
            "implicated_ctx": implicated.ctx if implicated else None,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, allow_nan=False) + "\n")
            for record in window:
                handle.write(json.dumps(record, allow_nan=False) + "\n")
            for record in extra_records:
                handle.write(json.dumps(record, allow_nan=False) + "\n")
            if implicated is not None:
                handle.write(json.dumps(
                    {"kind": "span-tree", "ctx": implicated.ctx,
                     "tree": implicated.to_dict()},
                    allow_nan=False) + "\n")
        self.dumps.append(path)
        return path
