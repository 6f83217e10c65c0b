"""Measurement helper: the per-transfer flow monitor.

The experiment harness needs goodput, completion time, and the time
series of deliveries; :class:`FlowMonitor` collects them without
entangling measurement with protocol logic (the receiving connection
calls ``record_*`` at the relevant points).  Packet-level event traces
are :mod:`repro.obs`'s job.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(slots=True)
class DeliverySample:
    time: float
    cumulative_bytes: int


class FlowMonitor:
    """Tracks application-level progress of one transfer."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self.samples: list[DeliverySample] = []
        self.total_bytes = 0
        self.first_delivery: float | None = None
        self.last_delivery: float | None = None
        self.completed_at: float | None = None

    def record_delivery(self, byte_count: int, now: float) -> None:
        self.total_bytes += byte_count
        if self.first_delivery is None:
            self.first_delivery = now
        self.last_delivery = now
        self.samples.append(DeliverySample(now, self.total_bytes))

    def record_completion(self, now: float) -> None:
        self.completed_at = now

    @property
    def duration(self) -> float:
        """Seconds from time zero to the last delivery."""
        return self.last_delivery if self.last_delivery is not None else 0.0

    def goodput_bps(self, until: float | None = None) -> float:
        """Average delivered rate over [0, until] (or the full trace)."""
        horizon = until if until is not None else self.duration
        if horizon <= 0:
            return 0.0
        if until is None:
            return self.total_bytes * 8 / horizon
        index = bisect.bisect_right([s.time for s in self.samples], until) - 1
        delivered = self.samples[index].cumulative_bytes if index >= 0 else 0
        return delivered * 8 / horizon

    def bytes_delivered_by(self, time: float) -> int:
        index = bisect.bisect_right([s.time for s in self.samples], time) - 1
        return self.samples[index].cumulative_bytes if index >= 0 else 0
