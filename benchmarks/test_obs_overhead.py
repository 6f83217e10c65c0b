"""Guard: what observability costs, switched off and switched on.

The :mod:`repro.obs` instrumentation points inside the quACK decode path
(``PROFILER.begin()`` in :func:`repro.quack.decoder.decode_delta` and
:mod:`repro.quack.wire`) cost one attribute load plus a falsy branch
when profiling is off.  This bench pins that claim down: the
instrumented decode, run with observability disabled, must stay within a
small factor of a hand-assembled pipeline that contains no
instrumentation at all.

The factor is deliberately generous (decode itself costs hundreds of
microseconds; the guarded branches cost nanoseconds) so the guard only
trips on a real regression -- e.g. someone making the disabled path
allocate or take a lock -- not on scheduler noise.

The enabled path is gated by a count instead of a clock: the extra
interpreter calls per data packet that turning observability on adds to
a transfer.  ``cProfile`` call counts depend on the interpreter version
and on nothing else -- the same on every run and every machine -- so
that gate does not move with the CI box.
"""

from __future__ import annotations

import cProfile

import pytest

from repro import obs
from repro.arith.newton import polynomial_from_power_sums
from repro.bench.timing import measure
from repro.bench.workloads import make_workload
from repro.quack.decoder import _find_roots, _match_roots_to_log, decode_delta
from repro.quack.power_sum import PowerSumQuack

#: Instrumented-but-disabled decode may be at most this much slower than
#: the uninstrumented pipeline.  Branch cost is ~1e-4 of decode cost;
#: anything past 1.5x means the disabled path started doing real work.
MAX_OVERHEAD_FACTOR = 1.5

TRIALS = 60


def _build_delta(workload):
    mine = PowerSumQuack(20, workload.bits)
    mine.insert_many(workload.sent)
    theirs = PowerSumQuack(20, workload.bits)
    theirs.insert_many(workload.received)
    return mine - theirs


def _untraced_decode(delta, sent_log):
    """decode_delta's success path with every obs call stripped out."""
    m = delta.count
    poly = polynomial_from_power_sums(delta.field, delta.power_sums[:m])
    root_counts = _find_roots(poly, sent_log, "candidates")
    assert sum(root_counts.values()) == m
    return _match_roots_to_log(root_counts, sent_log, delta, m)


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def test_disabled_tracing_adds_no_measurable_overhead():
    workload = make_workload(n=1000, num_missing=20, bits=32, seed=0)
    delta = _build_delta(workload)
    sent_log = [int(identifier) for identifier in workload.sent]

    expected = tuple(sorted(workload.missing))
    result = decode_delta(delta, sent_log, method="candidates")
    assert result.missing == expected
    assert _untraced_decode(delta, sent_log).missing == expected

    baseline = measure(lambda: _untraced_decode(delta, sent_log),
                       trials=TRIALS)
    instrumented = measure(
        lambda: decode_delta(delta, sent_log, method="candidates"),
        trials=TRIALS)

    factor = instrumented.median / baseline.median
    assert factor <= MAX_OVERHEAD_FACTOR, (
        f"disabled-observability decode is {factor:.2f}x the untraced "
        f"baseline ({instrumented.median * 1e6:.0f} µs vs "
        f"{baseline.median * 1e6:.0f} µs); the disabled path must stay "
        f"within {MAX_OVERHEAD_FACTOR}x")


def test_disabled_context_stamping_adds_no_measurable_overhead():
    """The sender's trace-context stamp must be free while tracing is off.

    The send hot path gained ``if obs.TRACER.enabled: packet.trace_ctx =
    packet.uid`` (transport/connection.py); with tracing disabled that is
    one attribute load plus a falsy branch per datagram.  Compare packet
    construction with the guarded stamp against bare construction.
    """
    from repro.netsim.packet import Packet

    def bare():
        for _ in range(200):
            Packet(src="a", dst="b", size_bytes=1460)

    def stamped():
        for _ in range(200):
            packet = Packet(src="a", dst="b", size_bytes=1460)
            if obs.TRACER.enabled:
                packet.trace_ctx = packet.uid

    baseline = measure(bare, trials=TRIALS)
    instrumented = measure(stamped, trials=TRIALS)

    factor = instrumented.median / baseline.median
    assert factor <= MAX_OVERHEAD_FACTOR, (
        f"disabled context stamping is {factor:.2f}x bare packet "
        f"construction ({instrumented.median * 1e6:.0f} µs vs "
        f"{baseline.median * 1e6:.0f} µs per 200 packets); the disabled "
        f"path must stay within {MAX_OVERHEAD_FACTOR}x")


def test_disabled_hierarchical_begin_matches_flat_guard():
    """The hierarchical profiler's disabled path must cost what the old
    flat profiler's did: one attribute load plus a falsy branch.

    ``begin(name)`` now keys a call-path frame, but while disabled it
    must return before touching any of that -- so a loop of named begins
    must stay within the overhead factor of a loop of anonymous ones
    (the flat profiler's exact disabled path).
    """
    from repro.obs.profile import Profiler

    profiler = Profiler()  # never configured: disabled
    batch = 500

    def named():
        for _ in range(batch):
            if profiler.begin("quack.newton"):
                profiler.end("quack.newton", 1.0)

    def anonymous():
        for _ in range(batch):
            if profiler.begin():
                profiler.end("x", 1.0)

    baseline = measure(anonymous, trials=TRIALS)
    instrumented = measure(named, trials=TRIALS)

    factor = instrumented.median / baseline.median
    assert factor <= MAX_OVERHEAD_FACTOR, (
        f"disabled hierarchical begin(name) is {factor:.2f}x the flat "
        f"disabled begin ({instrumented.median * 1e6:.0f} µs vs "
        f"{baseline.median * 1e6:.0f} µs per {batch} calls); the "
        f"disabled path must stay within {MAX_OVERHEAD_FACTOR}x")


#: Extra interpreter calls per data packet with observability on, per
#: ``run_ack_reduction`` unit of ``benchmarks/e2e/workloads.py``.  With a
#: hand-written ``obs.count`` beside every event these were 169.9 and
#: 218.3; deriving the metrics inside ``Tracer.emit`` measures 92.2 and
#: 125.3.  The caps leave room for a new event, not for a second record
#: per observation.
MAX_EXTRA_CALLS_PER_PACKET = {
    "plain": (dict(sidecar=False, ack_every=2), 125.0),
    "ackred": (dict(sidecar=True, ack_every=32), 165.0),
}
TRANSFER_BYTES = 1_500_000
DATA_PACKETS = -(-TRANSFER_BYTES // 1460)


def _profiled_calls(run) -> int:
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    # Summed from the raw entries: pstats keys by (file, line, name) and
    # folds every dataclass ``__init__`` ("<string>", 2) into one.
    return sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize("unit", sorted(MAX_EXTRA_CALLS_PER_PACKET))
def test_enabled_observability_call_budget(unit):
    from repro.sidecar.ack_reduction import run_ack_reduction

    kwargs, cap = MAX_EXTRA_CALLS_PER_PACKET[unit]

    def run():
        result = run_ack_reduction(total_bytes=TRANSFER_BYTES,
                                   loss_rate=0.0, **kwargs)
        assert result.completed

    run()  # warm-up: imports, memoised tables
    disabled = _profiled_calls(run)
    obs.enable(profile=False)
    try:
        enabled = _profiled_calls(run)
    finally:
        obs.disable()
    extra = (enabled - disabled) / DATA_PACKETS
    assert 0 < extra <= cap, (
        f"{unit}: observability adds {extra:.1f} interpreter calls per "
        f"packet ({enabled} enabled vs {disabled} disabled over "
        f"{DATA_PACKETS} packets); the budget is {cap:.0f} -- an "
        f"instrumentation point makes one call, Tracer.emit, and the "
        f"metrics are derived from it (repro/obs/schema.py)")


def test_enabled_profiling_actually_records():
    """Sanity inverse: with obs on, the same decode produces span data."""
    workload = make_workload(n=400, num_missing=10, bits=32, seed=1)
    delta = _build_delta(workload)
    sent_log = [int(identifier) for identifier in workload.sent]
    obs.enable()
    try:
        decode_delta(delta, sent_log, method="candidates")
    finally:
        obs.disable()
    # The inner spans nest under the quack.decode call path.
    paths = set(obs.PROFILER.path_stats())
    assert ("quack.decode", "quack.newton") in paths
    assert ("quack.decode", "quack.rootfind") in paths
    obs.reset()
