"""Work-counter gate: sent-log lookups per ACK do not grow with the transfer.

Machine-independent (ROADMAP 1(a)): the count of reads of
``SenderConnection.sent`` made while an ACK is being processed -- the ACK
range walk, loss detection, the RTT sample -- on the benchmark's ``plain``
call.  The full scans this replaced made 606 / 1,796 / 4,646 of them per
ACK at 0.5 / 1.5 / 4.5 MB (every number of every range, then the whole
log sorted and scanned); the incremental path makes about 4 at any size.
"""

from collections import Counter
from dataclasses import asdict

import pytest

from repro.sidecar.ack_reduction import run_ack_reduction
from repro.transport.connection import SenderConnection

#: run_ack_reduction(sidecar=False, ack_every=2, loss_rate=0.0) under the
#: full scans; the change may not move any of it.
PINNED = {
    500_000: dict(completion_time=0.46123039999999954, client_acks_sent=172,
                  server_packets_sent=343, server_retransmissions=0),
    1_500_000: dict(completion_time=0.861873600000012, client_acks_sent=562,
                    server_packets_sent=1123, server_retransmissions=95),
    4_500_000: dict(completion_time=1.7763024000000924, client_acks_sent=1966,
                    server_packets_sent=3512, server_retransmissions=429),
}

LOOKUPS_PER_ACK = 6


@pytest.mark.parametrize("total_bytes", sorted(PINNED))
def test_sent_log_lookups_per_ack_do_not_grow_with_the_transfer(
        monkeypatch, total_bytes):
    work = Counter()

    class CountingLog(dict):
        """The sent log, counting reads made while an ACK is processed.
        Iterating it counts as reading every entry."""

        def get(self, key, default=None):
            work["lookups"] += work["inside"]
            return dict.get(self, key, default)

        def __getitem__(self, key):
            work["lookups"] += work["inside"]
            return dict.__getitem__(self, key)

        def __iter__(self):
            work["lookups"] += work["inside"] * len(self)
            return dict.__iter__(self)

        def values(self):
            work["lookups"] += work["inside"] * len(self)
            return dict.values(self)

    construct = SenderConnection.__init__
    on_ack_packet = SenderConnection._on_ack_packet

    def counting_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        self.sent = CountingLog()

    def counted_on_ack_packet(self, packet):
        work["acks"] += 1
        work["inside"] += 1
        try:
            return on_ack_packet(self, packet)
        finally:
            work["inside"] -= 1

    monkeypatch.setattr(SenderConnection, "__init__", counting_init)
    monkeypatch.setattr(SenderConnection, "_on_ack_packet",
                        counted_on_ack_packet)
    result = asdict(run_ack_reduction(sidecar=False, ack_every=2,
                                      loss_rate=0.0, total_bytes=total_bytes))
    assert result["completed"]
    assert {key: result[key] for key in PINNED[total_bytes]} \
        == PINNED[total_bytes]
    assert work["acks"] == PINNED[total_bytes]["client_acks_sent"]
    assert work["lookups"] / work["acks"] <= LOOKUPS_PER_ACK
