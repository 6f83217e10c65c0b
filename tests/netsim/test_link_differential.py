"""Differential oracle: the one-event link against the two-event link.

:class:`~repro.netsim.link.Link` computes each departure at enqueue and
schedules only the arrival; ``link_oracle.TwoEventLink`` serializes with
an end-of-serialisation timer, as the runtime link did before.  Over
Hypothesis-chosen packet sizes, send times, queue limits, ECN
thresholds and ``DeterministicLoss`` ordinals, the two must agree
exactly (``==``, no tolerance) on delivery times, ``send()`` results,
CE marks, ``queue_depth`` around each send and the final ``LinkStats``.

Send times sit on a grid of 2**-20 s and one bandwidth makes every
serialisation time a multiple of it, so sends often land exactly on a
departure; each program also adds sends at departure instants the
oracle reported.  Every send is scheduled before the run starts, so at
such a tie it takes its sequence number ahead of the old link's timer
and finds the departing packet still queued -- the order the runtime
link's strict ``departure < now`` rule encodes.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.loss import DeterministicLoss
from repro.netsim.packet import Packet
from tests.netsim.link_oracle import TwoEventLink

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

UNIT = 2.0 ** -20

#: Serialisation times on the grid (8 bits per byte / 2**23 bit/s), off
#: it by a factor of three, and an ordinary decimal rate.
BANDWIDTHS = st.sampled_from([8 * 2 ** 20, 3 * 8 * 2 ** 20, 1e7])
SIZES = st.one_of(st.sampled_from([250, 500, 1000, 1500]),
                  st.integers(min_value=1, max_value=1500))
GAPS = st.one_of(st.sampled_from([0, 250, 500, 1000]),
                 st.integers(min_value=0, max_value=3000))
PROGRAMS = st.fixed_dictionaries({
    "bandwidth": BANDWIDTHS,
    "delay": st.sampled_from([0.0, 2.0 ** -10, 0.01]),
    "queue": st.integers(min_value=1, max_value=8),
    "ecn": st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    "sends": st.lists(st.tuples(GAPS, SIZES), min_size=1, max_size=40),
    "drops": st.frozensets(st.integers(min_value=0, max_value=40),
                           max_size=8),
    "at_departures": st.lists(st.tuples(st.integers(min_value=0), SIZES),
                              max_size=6),
})


def _run(link_class, program, sends):
    """Run one link over ``sends`` (time, size); return what it showed."""
    sim = Simulator()
    delivered = []
    link = link_class(
        sim, program["bandwidth"], program["delay"],
        lambda packet: delivered.append(
            (sim.now, packet.payload, packet.ecn_ce)),
        queue_packets=program["queue"],
        loss_model=DeterministicLoss(program["drops"]),
        ecn_threshold=program["ecn"])
    at_send = []

    def send(index, size):
        before = link.queue_depth
        accepted = link.send(Packet(src="a", dst="b", size_bytes=size,
                                    payload=index))
        at_send.append((sim.now, before, accepted, link.queue_depth))

    for index, (time, size) in enumerate(sends):
        sim.schedule_at(time, send, index, size)
    sim.run()
    return link, {"delivered": delivered, "at_send": at_send,
                  "stats": asdict(link.stats)}


def _sends(program) -> list[tuple[float, int]]:
    sends, ticks = [], 0
    for gap, size in program["sends"]:
        ticks += gap
        sends.append((ticks * UNIT, size))
    return sends


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_one_event_link_matches_the_two_event_link(program):
    sends = _sends(program)
    oracle, _ = _run(TwoEventLink, program, sends)
    departures = oracle.departures
    sends += [(departures[pick % len(departures)], size)
              for pick, size in program["at_departures"]]
    sends.sort(key=lambda send: send[0])
    _, expected = _run(TwoEventLink, program, sends)
    _, found = _run(Link, program, sends)
    assert found == expected


def test_a_send_at_a_departure_instant_sees_the_departing_packet():
    """The tie the property exercises, spelled out: 1000 B at 8 Mbit/s
    on the grid leaves at exactly 1000 units, when the next send
    arrives; the departing packet still fills the one-packet queue."""
    program = {"bandwidth": 8 * 2 ** 20, "delay": 0.0, "queue": 1,
               "ecn": None, "drops": frozenset()}
    sends = [(0.0, 1000), (1000 * UNIT, 1000), (1000 * UNIT + UNIT, 1000)]
    for link_class in (TwoEventLink, Link):
        _, shown = _run(link_class, program, sends)
        assert [accepted for _, _, accepted, _ in shown["at_send"]] \
            == [True, False, True]
