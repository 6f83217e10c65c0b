"""A BBR-flavored, model-based congestion controller.

Section 2.1 motivates congestion-control division with the observation
that a proxy could "implement a different kind of congestion control on
each segment entirely".  Loss-based AIMD is exactly what suffers on a
noisy access link; a model-based controller that paces at the estimated
bottleneck bandwidth and ignores stray losses is the natural alternative.
``BbrLite`` implements the core of BBR v1:

* **btlbw** -- windowed-max of delivery-rate samples (last ~10 samples);
* **rtprop** -- windowed-min of RTT samples (10 s expiry);
* a **startup** phase growing 2.89x per round until bandwidth plateaus
  for three rounds, then a **drain**, then **probe-bw** cycling pacing
  gain through [1.25, 0.75, 1, 1, 1, 1, 1, 1];
* cwnd capped at ``cwnd_gain * btlbw * rtprop`` (the BDP estimate);
* losses do **not** collapse the window (only the floor applies).

Delivery-rate sampling is simplified: each ACK contributes
``acked_bytes / elapsed-since-previous-ACK``, which on an ACK-per-few-
packets cadence approximates the true delivery rate well enough for the
simulator.  This is deliberately "lite" -- no ProbeRTT dwell, no
long-term bandwidth sampler -- and documented as such.
"""

from __future__ import annotations

from collections import deque

from repro.transport.cc.base import CongestionController

STARTUP_GAIN = 2.89
DRAIN_GAIN = 1 / STARTUP_GAIN
CWND_GAIN = 2.0
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Bandwidth samples kept for the windowed max.
BW_WINDOW_SAMPLES = 10

#: rtprop expires after this long without a new minimum (BBR uses 10 s).
RTPROP_WINDOW_S = 10.0

#: Startup ends after this many rounds without >25% bandwidth growth.
FULL_BW_ROUNDS = 3


class BbrLite(CongestionController):
    """Model-based (BBR v1 style) controller; best used with pacing."""

    def __init__(self) -> None:
        super().__init__()
        self._bw_samples: deque[float] = deque(maxlen=BW_WINDOW_SAMPLES)
        self._btlbw = 0.0            # bytes per second
        self._rtprop = float("inf")
        self._rtprop_stamp = 0.0
        # Delivery-rate sampling state: acks arriving at the same instant
        # (several records in one ACK frame) aggregate into one sample.
        self._prev_ack_time: float | None = None
        self._cur_ack_time: float | None = None
        self._cur_ack_bytes = 0
        self._mode = "startup"
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._round_bytes = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0

    # -- model updates --------------------------------------------------------

    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        if rtt_s > 0:
            if rtt_s <= self._rtprop or \
                    now - self._rtprop_stamp > RTPROP_WINDOW_S:
                self._rtprop = rtt_s
                self._rtprop_stamp = now
        if self._cur_ack_time is None:
            self._cur_ack_time = now
            self._cur_ack_bytes = acked_bytes
        elif now == self._cur_ack_time:
            self._cur_ack_bytes += acked_bytes
        else:
            if self._prev_ack_time is not None \
                    and self._cur_ack_time > self._prev_ack_time:
                sample = self._cur_ack_bytes \
                    / (self._cur_ack_time - self._prev_ack_time)
                self._bw_samples.append(sample)
                self._btlbw = max(self._bw_samples)
            self._prev_ack_time = self._cur_ack_time
            self._cur_ack_time = now
            self._cur_ack_bytes = acked_bytes

        self._advance_state_machine(acked_bytes, now)
        self._update_cwnd()

    def _advance_state_machine(self, acked_bytes: int, now: float) -> None:
        rtprop = self._rtprop if self._rtprop != float("inf") else 0.1
        self._round_bytes += acked_bytes
        # A "round" is one window's worth of acknowledgments.  Clamp to
        # the actual cwnd so an early bandwidth underestimate cannot make
        # rounds artificially short and end startup prematurely.
        round_size = max(self._btlbw * rtprop, self.cwnd,
                         self.datagram_bytes)
        if self._round_bytes < round_size:
            return
        self._round_bytes = 0
        if self._mode == "startup":
            if self._btlbw > self._full_bw * 1.25:
                self._full_bw = self._btlbw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= FULL_BW_ROUNDS:
                    self._mode = "drain"
        elif self._mode == "drain":
            # One round of draining the startup queue is enough here.
            self._mode = "probe_bw"
            self._cycle_stamp = now
        elif self._mode == "probe_bw":
            if now - self._cycle_stamp >= rtprop:
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAINS)
                self._cycle_stamp = now

    def _update_cwnd(self) -> None:
        if self._btlbw <= 0 or self._rtprop == float("inf"):
            return  # keep the initial window until the model is primed
        bdp = self._btlbw * self._rtprop
        target = max(int(CWND_GAIN * bdp), self._floor())
        if self._mode == "startup":
            # Never let an unconverged model throttle startup below the
            # window we are already probing with.
            target = max(target, self.cwnd)
        self.cwnd = target

    # -- interface ---------------------------------------------------------------

    @property
    def pacing_gain(self) -> float:
        if self._mode == "startup":
            return STARTUP_GAIN
        if self._mode == "drain":
            return DRAIN_GAIN
        return PROBE_GAINS[self._cycle_index]

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def bottleneck_bandwidth_bps(self) -> float:
        return self._btlbw * 8

    @property
    def min_rtt_estimate(self) -> float:
        return self._rtprop

    def pacing_rate_bps(self, rtt_s: float) -> float:
        """The sender paces at ``gain * btlbw`` once the model is primed."""
        if self._btlbw <= 0:
            # Unprimed: pace the initial window over the handshake RTT.
            return STARTUP_GAIN * self.cwnd * 8 / max(rtt_s, 1e-4)
        return max(self.pacing_gain * self._btlbw * 8,
                   self.datagram_bytes * 8)

    def _reduce_window(self, now: float) -> None:
        # BBR does not halve on loss; the model re-converges instead.
        # The floor keeps pathological cases alive.
        self.cwnd = max(self.cwnd, self._floor())

    @property
    def in_slow_start(self) -> bool:  # startup plays slow start's role
        return self._mode == "startup"

    def __repr__(self) -> str:
        return (f"BbrLite(mode={self._mode}, "
                f"btlbw={self.bottleneck_bandwidth_bps / 1e6:.2f} Mbps, "
                f"rtprop={self._rtprop * 1e3:.1f} ms, "
                f"cwnd={self.cwnd_packets:.1f} pkts)")
