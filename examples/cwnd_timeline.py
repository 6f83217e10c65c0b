#!/usr/bin/env python3
"""Watch congestion windows react to an unruly access link.

Runs the same 1.5 MB transfer over a 20 Mbps / 40 ms path with 3% random
loss under three controllers -- NewReno, CUBIC, and the model-based
BbrLite -- with tracing on, and charts each cwnd timeline the trace
analyzer derives from the ``transport.cwnd`` events (one point per
window change, held onto a 50 ms grid so the x axis is time).  This is
the per-segment behaviour the congestion-control division proxy gets to
choose between (paper, Section 2.1).

Run::

    python examples/cwnd_timeline.py
"""

import random
from bisect import bisect_right

from repro import obs
from repro.netsim import BernoulliLoss, Host, HopSpec, Simulator, build_path
from repro.obs.analyze import analyze, ascii_chart
from repro.transport import BbrLite, Cubic, NewReno
from repro.transport.connection import ReceiverConnection, SenderConnection

TOTAL = 1_500_000
LOSS = 0.03
STEP_S = 0.05


def run(controller_factory, pacing):
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    build_path(sim, [server, client],
               [HopSpec(bandwidth_bps=20e6, delay_s=0.02, queue_packets=64,
                        loss_up=BernoulliLoss(LOSS, random.Random(7)))])
    receiver = ReceiverConnection(sim, client, "server", TOTAL)
    sender = SenderConnection(sim, server, "client", TOTAL,
                              cc=controller_factory(), pacing=pacing)
    obs.reset()
    sink = obs.enable(profile=False)
    try:
        sender.start()
        sim.run(until=60)
    finally:
        obs.disable()
    return sender, receiver, analyze(sink.events).points[sender.flow_id]


def main() -> None:
    print(f"transfer: 1.5 MB over 20 Mbps / 40 ms RTT / {LOSS:.0%} loss\n")
    for name, factory, pacing in (("NewReno", NewReno, False),
                                  ("CUBIC", Cubic, False),
                                  ("BbrLite (paced)", BbrLite, True)):
        sender, receiver, points = run(factory, pacing)
        times = [point.time for point in points]
        cwnd = [point.cwnd for point in points]
        steps = int((times[-1] - times[0]) / STEP_S) + 1
        held = [cwnd[bisect_right(times, times[0] + STEP_S * i) - 1]
                for i in range(steps)]
        goodput = receiver.monitor.goodput_bps(receiver.completed_at)
        print(ascii_chart(
            [value / sender.cc.datagram_bytes for value in held],
            width=72, height=8,
            label=(f"{name}: cwnd (packets) -- finished in "
                   f"{receiver.completed_at:.2f}s at "
                   f"{goodput / 1e6:.1f} Mbps, "
                   f"{sender.stats.retransmitted_packets} retx")))
        print()


if __name__ == "__main__":
    main()
