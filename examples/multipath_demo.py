#!/usr/bin/env python3
"""Multipath + per-path sidecars (the paper's Section 5 question).

"How would a proxy interact with multipath transport protocols?"
Each subflow of a multipath transfer is an ordinary paranoid connection
with its own flow id and identifier key, so the answer falls out of the
design: every on-path proxy runs an ordinary quACK session against its
own subflow, no coordination needed.

The demo stripes a 2 MB transfer over a fast clean path and a slower
lossy path, first bare, then with a quACK sidecar assisting each path.

Run::

    python examples/multipath_demo.py
"""

import random

from repro.netsim.core import Simulator
from repro.netsim.loss import BernoulliLoss
from repro.netsim.node import Host, Router
from repro.netsim.topology import HopSpec, build_parallel_paths
from repro.sidecar.agents import ProxyEmitterTap, ServerSidecar
from repro.sidecar.frequency import PacketCountFrequency
from repro.transport.multipath import MultipathTransfer, PathSpec

TOTAL = 2_000_000


def run(with_sidecars: bool):
    sim = Simulator()
    server, client = Host(sim, "server"), Host(sim, "client")
    p0, p1 = Router(sim, "p0"), Router(sim, "p1")
    build_parallel_paths(sim, server, client, [p0, p1], [
        (HopSpec(bandwidth_bps=20e6, delay_s=0.01),
         HopSpec(bandwidth_bps=20e6, delay_s=0.01)),
        (HopSpec(bandwidth_bps=10e6, delay_s=0.03,
                 loss_up=BernoulliLoss(0.02, random.Random(4))),
         HopSpec(bandwidth_bps=10e6, delay_s=0.03)),
    ])
    transfer = MultipathTransfer(sim, server, client, TOTAL,
                                 [PathSpec("p0"),
                                  PathSpec("p1")])
    sidecars = []
    if with_sidecars:
        for proxy, subflow in zip((p0, p1), transfer.subflows):
            ProxyEmitterTap(sim, proxy, server="server", client="client",
                            flow_id=subflow.flow_id,
                            policy=PacketCountFrequency(4), threshold=16)
            sidecars.append(ServerSidecar(sim, subflow.sender, threshold=16,
                                          grace=2, apply_losses=False))
    transfer.start()
    sim.run(until=60)
    return transfer, sidecars


def main() -> None:
    print("2 MB striped over: p0 = 20 Mbps/10 ms clean, "
          "p1 = 10 Mbps/30 ms with 2% loss\n")
    for label, with_sidecars in (("bare multipath", False),
                                 ("with per-path sidecars", True)):
        transfer, sidecars = run(with_sidecars)
        split = transfer.bytes_by_subflow()
        print(f"{label}:")
        print(f"  completed in {transfer.completed_at:.2f} s "
              f"({transfer.goodput_bps / 1e6:.1f} Mbps aggregate)")
        print(f"  stream split: p0 carried {split['mp-0'] / TOTAL:.0%}, "
              f"p1 carried {split['mp-1'] / TOTAL:.0%}")
        for index, sidecar in enumerate(sidecars):
            print(f"  sidecar[{index}]: {sidecar.stats.quacks_received} "
                  f"quACKs, {sidecar.stats.receipts_applied} receipts, "
                  f"{sidecar.stats.decode_failures} failures")
        print()


if __name__ == "__main__":
    main()
