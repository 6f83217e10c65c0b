"""The incremental sender against the full scans it replaced.

Two worlds -- one ``SenderConnection``, one ``ReferenceSender`` (the
pre-incremental ``_on_ack_packet`` / ``_detect_losses`` / ``_on_pto``,
see ``sender_oracle.py``) -- each with its own simulator, a one-hop path
and a client that only records what arrives.  The test plays the peer:
it decides what the client "received", builds ACK frames from that the
way ``AckTracker`` does, then bends them (duplicates, stale frames,
shuffled and overlapping ranges, ranges bridging numbers never
delivered, a range reaching past the largest number sent) and interleaves
sidecar receipts and losses, ACK_FREQUENCY packets, pauses and idle
periods long enough for the PTO.  After every step the two senders must
agree on every record's flags, the windows, the retransmission queue,
the congestion controller, the RTT estimator, the stats, the PTO timer
and the packets that reached the client, and the incremental sender must
pass the audit.
"""

import random
import sys
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.core import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import HopSpec, build_path
from repro.transport.cc.cubic import Cubic
from repro.transport.cc.fixed import FixedWindow
from repro.transport.connection import PACKET_REORDER_THRESHOLD, SenderConnection
from repro.transport.frames import AckFrame, DataFrame
from repro.transport.multipath import SharedStream, SubflowSender
from repro.transport.ranges import RangeSet
from tests.transport.sender_oracle import ReferenceSender, audit_sender

MSS = 1460
MAX_RANGES = 32  # AckTracker's truncation

#: A multipath subflow (chunks from a shared stream, its own completion
#: rule) processing ACKs, losses and probes by the full scans.
ReferenceSubflowSender = type("ReferenceSubflowSender",
                              (ReferenceSender, SubflowSender), {})


class World:
    """One sender on a one-hop path; the client records DATA arrivals."""

    def __init__(self, sender_class, total_bytes, *, cc=None,
                 reorder_threshold=PACKET_REORDER_THRESHOLD,
                 **sender_attrs):
        self.sim = Simulator()
        server, client = Host(self.sim, "server"), Host(self.sim, "client")
        build_path(self.sim, [server, client],
                   [HopSpec(bandwidth_bps=20e6, delay_s=0.005)])
        self.server = server
        #: (time, packet number) of every DataFrame that reached the client.
        self.arrived: list[tuple[float, int]] = []
        client.add_handler(PacketKind.DATA, self._on_data)
        stream = ((SharedStream(total_bytes),)
                  if issubclass(sender_class, SubflowSender) else ())
        self.sender = sender_class(self.sim, server, "client", total_bytes,
                                   *stream)
        if cc is not None:
            self.sender.cc = cc()
        for name, value in sender_attrs.items():
            setattr(self.sender, name, value)
        self.sender.reorder_threshold = reorder_threshold

    def _on_data(self, packet: Packet) -> None:
        frame = packet.protected_payload(self.sender.key)
        if isinstance(frame, DataFrame):
            self.arrived.append((self.sim.now, frame.packet_number))

    def deliver_ack(self, frame: AckFrame) -> None:
        self.server.receive(Packet.sealed(
            src="client", dst="server", size_bytes=60, key=self.sender.key,
            payload=frame, kind=PacketKind.ACK,
            flow_id=self.sender.flow_id, created_at=self.sim.now))


def snapshot(world: World) -> dict:
    sender = world.sender
    rtt = sender.rtt
    state = {
        "records": dict(sender.sent),
        "bytes_in_flight": sender.bytes_in_flight,
        "acked_offsets": sender.acked_offsets.ranges,
        "retx_queue": list(sender._retx_queue),
        "cc": dict(vars(sender.cc)),
        "rtt": (rtt.srtt, rtt.rttvar, rtt.min_rtt, rtt.latest, rtt.has_sample),
        "stats": asdict(sender.stats),
        "largest_acked": sender._largest_acked,
        "pto_backoff": sender._pto_backoff,
        "pto_fires_at": sender._pto_timer.next_fire_time,
        "ce_echoed": sender._ce_echoed,
        "next_packet_number": sender._next_packet_number,
        "next_offset": sender._next_offset,
        "completed_at": sender.completed_at,
        "now": world.sim.now,
        "arrived": list(world.arrived),
    }
    if isinstance(sender, SubflowSender):
        state["assigned_offsets"] = sender.assigned_offsets.ranges
    return state


def assert_same_state(new: World, old: World, step) -> None:
    mine, theirs = snapshot(new), snapshot(old)
    for key in mine:
        if key == "records" and mine[key] != theirs[key]:
            assert sorted(mine[key]) == sorted(theirs[key]), step
            differing = [(mine[key][pn], theirs[key][pn]) for pn in mine[key]
                         if mine[key][pn] != theirs[key][pn]]
            raise AssertionError((step, differing[0]))
        assert mine[key] == theirs[key], (step, key, mine[key], theirs[key])
    audit_sender(new.sender)


def run_schedule(seed, steps, seen, *, sender_class=SenderConnection,
                 reference_class=ReferenceSender, packets=150, drop=0.08,
                 **config):
    """One seeded conversation; asserts after every step."""
    rng = random.Random(seed)
    total_bytes = packets * MSS - 17
    new = World(sender_class, total_bytes, **config)
    old = World(reference_class, total_bytes, **config)
    worlds = (new, old)
    received = RangeSet()       # what the client would acknowledge
    taken = 0                   # arrivals already decided on
    frames: list[AckFrame] = []
    early: set[int] = set()     # acked before they were sent
    ce_count = 0

    def both(action):
        for world in worlds:
            action(world)

    def frame_of(ranges, delay=0.0):
        frame = AckFrame(largest_acked=max(hi for _lo, hi in ranges),
                         ranges=tuple(ranges), delay_s=delay,
                         ecn_ce_count=ce_count,
                         packet_number=len(frames))
        frames.append(frame)
        del frames[:-12]
        return frame

    def honest_ranges():
        ranges = list(received.ranges)
        ranges.reverse()
        seen["truncated frame"] += len(ranges) > MAX_RANGES
        return ranges[:MAX_RANGES]

    def send_ack(frame):
        both(lambda world: world.deliver_ack(frame))

    def recent_numbers(count):
        top = new.sender._next_packet_number
        return [rng.randrange(max(0, top - 40), top + 2)
                for _ in range(count)]

    operations = ("advance", "receive", "ack", "duplicate", "stale",
                  "shuffled", "overlapping", "bridging", "ahead", "receipt",
                  "sidecar loss", "ack frequency", "idle", "pause", "ce")
    weights = (30, 30, 25, 3, 3, 3, 3, 2, 1.5, 6, 3, 1, 1.5, 0.7, 1)
    both(lambda world: world.sender.start())
    assert_same_state(new, old, "start")
    for step in range(steps):
        operation = rng.choices(operations, weights)[0]
        if operation == "advance":
            until = new.sim.now + rng.choice((0.0005, 0.002, 0.006, 0.012))
            both(lambda world: world.sim.run(until=until))
        elif operation == "idle":          # long enough for the PTO
            fired = new.sender.stats.pto_fired
            until = new.sim.now + rng.choice((0.2, 0.5, 1.5))
            both(lambda world: world.sim.run(until=until))
            seen["pto"] += new.sender.stats.pto_fired - fired
        elif operation == "receive":
            fresh = new.arrived[taken:taken + rng.randint(1, 6)]
            taken += len(fresh)
            rng.shuffle(fresh)
            for _time, pn in fresh:
                if rng.random() >= drop:
                    received.add(pn)
        elif operation == "ack" and received:
            send_ack(frame_of(honest_ranges(),
                              delay=rng.choice((0.0, 0.0, 0.001, 0.02))))
        elif operation == "duplicate" and frames:
            send_ack(frames[-1])
        elif operation == "stale" and frames:
            send_ack(rng.choice(frames))
        elif operation == "shuffled" and received:
            ranges = honest_ranges()
            rng.shuffle(ranges)
            send_ack(frame_of(ranges))
        elif operation == "overlapping" and received:
            ranges = honest_ranges()
            lo, hi = rng.choice(ranges)
            cut = rng.randint(lo, hi)
            ranges.insert(rng.randrange(len(ranges) + 1),
                          (max(0, cut - rng.randint(0, 3)),
                           cut + rng.randint(0, 3)))
            ranges.append((lo, hi))
            send_ack(frame_of(ranges))
        elif operation == "bridging" and len(received.ranges) > 1:
            # Claims numbers the client never got: lost packets, the
            # number of an ACK_FREQUENCY packet.
            ranges = honest_ranges()
            index = rng.randrange(len(ranges) - 1)
            (_lo, hi), (lo, _hi) = ranges[index], ranges[index + 1]
            ranges[index:index + 2] = [(lo, hi)]
            send_ack(frame_of(ranges))
        elif operation == "ahead":
            top = new.sender._next_packet_number
            reach = top + rng.randint(0, 4)
            early.update(range(top, reach + 1))
            seen["acked early"] += 1
            ranges = honest_ranges()
            ranges.insert(0, (max(0, top - rng.randint(0, 2)), reach))
            send_ack(frame_of(ranges))
        elif operation == "receipt":
            numbers = recent_numbers(rng.randint(1, 8))
            both(lambda world: world.sender.sidecar_receipt(numbers))
        elif operation == "sidecar loss":
            numbers = recent_numbers(rng.randint(1, 3))
            congestive = rng.random() < 0.5
            both(lambda world: world.sender.sidecar_loss(numbers, congestive))
        elif operation == "ack frequency":
            both(lambda world: world.sender.request_ack_frequency(8, 0.05))
            seen["number without a record"] += 1
        elif operation == "pause":
            both(lambda world: world.sender.pause())
            until = new.sim.now + 0.01
            both(lambda world: world.sim.run(until=until))
            assert_same_state(new, old, (step, "paused"))
            both(lambda world: world.sender.resume())
        elif operation == "ce":
            ce_count += 1
        assert_same_state(new, old, (step, operation))
    # An honest peer from here on, so that completion is compared too.
    for round_ in range(300):
        if new.sender.complete:
            break
        until = new.sim.now + 0.03
        both(lambda world: world.sim.run(until=until))
        for _time, pn in new.arrived[taken:]:
            received.add(pn)
        taken = len(new.arrived)
        send_ack(frame_of(honest_ranges()))
        assert_same_state(new, old, ("drain", round_))
    seen["completed"] += new.sender.complete
    seen["losses"] += new.sender.stats.losses_detected
    seen["acked early, acked for real later"] += sum(
        1 for pn in early
        if pn in new.sender.sent and new.sender.sent[pn].acked)
    return new


CONFIGS = [
    dict(),
    dict(cc_from_acks=False),
    dict(reorder_threshold=64, drop=0.15),
    dict(sender_class=SubflowSender, reference_class=ReferenceSubflowSender),
    dict(pacing=True, cc=Cubic),
    dict(cc=lambda: FixedWindow(60), drop=0.3, packets=250),
]


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=["default", "cc_from_acks=False", "reorder_threshold=64",
         "multipath", "pacing+cubic", "fixed-window,drop=0.3"])
def test_incremental_sender_agrees_with_the_full_scans(config):
    seen = Counter()
    for seed in range(4):
        run_schedule(seed, 600, seen, **config)
    # The schedules reach what the bookkeeping has to survive.
    for event in ("pto", "losses", "number without a record",
                  "acked early",
                  "acked early, acked for real later", "completed"):
        assert seen[event] > 0, (event, seen)


def test_schedules_reach_frames_truncated_at_32_ranges():
    seen = Counter()
    run_schedule(3, 900, seen, **CONFIGS[-1])
    assert seen["truncated frame"] > 10


class FloorPastWaitingRecords(SenderConnection):
    """Mutant: the floor jumps over records still waiting for an ACK."""

    def _detect_losses(self, now):
        super()._detect_losses(now)
        if self._largest_acked is not None:
            self._loss_floor = self._largest_acked + 1


class ForgetsWhatWasSent(RangeSet):
    def add_new(self, ranges, below=None):
        return super().add_new(ranges)


class RecordsNumbersNotSentYet(SenderConnection):
    """Mutant: an ACK for a number not sent yet is remembered, so the
    packet that later carries the number can never be acked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.acked_numbers = ForgetsWhatWasSent()


@pytest.mark.parametrize("caught_by", ["audit", "comparison"])
@pytest.mark.parametrize("mutant", [FloorPastWaitingRecords,
                                    RecordsNumbersNotSentYet])
def test_oracle_catches_a_seeded_mutation(mutant, caught_by, monkeypatch,
                                          audited_senders):
    if caught_by == "comparison":
        monkeypatch.setattr(sys.modules[__name__], "audit_sender",
                            lambda sender: None)
    with pytest.raises(AssertionError) as caught:
        run_schedule(0, 600, Counter(), sender_class=mutant)
    assert str(caught.value).startswith("flow0:") == (caught_by == "audit")
    audited_senders.clear()  # the mutant would fail the closing audit too


# -- arbitrary frames --------------------------------------------------------

ack_ranges = st.lists(
    st.tuples(st.integers(0, 70), st.integers(0, 9)).map(
        lambda pair: (pair[0], pair[0] + pair[1])),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frames=st.lists(st.tuples(ack_ranges, st.sampled_from(
    (0.0, 0.001, 0.006, 0.3))), min_size=1, max_size=25),
    threshold=st.sampled_from((3, 64)))
def test_any_frame_sequence_leaves_both_senders_in_the_same_state(
        frames, threshold):
    """Frames no receiver would build: any ranges, any order, any overlap,
    reaching past what was sent, with idle gaps that let the PTO fire."""
    config = dict(cc=lambda: FixedWindow(24),
                  reorder_threshold=threshold)
    new = World(SenderConnection, 60 * MSS, **config)
    old = World(ReferenceSender, 60 * MSS, **config)
    for world in (new, old):
        world.sender.start()
    for index, (ranges, wait) in enumerate(frames):
        until = new.sim.now + wait
        for world in (new, old):
            world.sim.run(until=until)
            world.deliver_ack(AckFrame(
                largest_acked=max(hi for _lo, hi in ranges),
                ranges=tuple(ranges), packet_number=index))
        assert_same_state(new, old, index)
