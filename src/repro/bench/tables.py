"""The paper's evaluation as one table of artifacts, printed one way.

:data:`ARTIFACTS` holds one row per artifact -- Table 2, Table 3,
Figure 5, Figure 6, the Section 4.3 frequency envelopes and the E11
headroom extension -- and :meth:`Artifact.section` lays any row out as
a report section (:mod:`repro.obs.analyze`), a table with the paper's
value beside ours plus a note, which ``python -m repro
tables table2|table3|fig5|fig6|sizing|headroom|all`` prints as markdown.
The compute functions below (``table2_report``, ``fig5_series``, ...)
are what the rows and the pytest-benchmark files in ``benchmarks/``
share.

Absolute times will not match the paper (C++ on a MacBook vs CPython);
the *shape* -- orderings, proportionality, crossovers -- is the
reproduction target.  Sizes and probabilities are analytic and match
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from repro.bench import frequency
from repro.bench.timing import (
    TimingResult,
    measure,
    measure_interleaved,
    measure_throughput,
)
from repro.bench.traces import survival_probability
from repro.bench.workloads import (
    PAPER_B,
    PAPER_COUNT_BITS,
    PAPER_N,
    PAPER_T,
    make_workload,
)
from repro.obs.analyze import Section, Table
from repro.quack.collision import collision_probability
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack, HashQuack
from repro.sidecar.frequency import retransmission_cadence

#: Table 2 of the paper (n=1000, t=20, b=32, c=16; MacBook Pro, C++).
PAPER_TABLE2 = {
    "strawman1": {"construction_us": 222.0, "decode_us": 126.0,
                  "size_bits": 32_000},
    "strawman2": {"construction_us": 0.387, "decode_days": 7e6,
                  "size_bits": 272},
    "power_sum": {"construction_us": 106.0, "decode_us": 61.0,
                  "size_bits": 656},
}

#: Table 3 of the paper (collision probability, n=1000).
PAPER_TABLE3 = {8: 0.98, 16: 0.015, 24: 6.0e-5, 32: 2.3e-7}

#: Workload seed of every timed artifact.
SEED = 0
#: Strawman 2's decode is extrapolated from C(18, 3) subsets, small
#: enough to enumerate.
STRAWMAN2_PROBE = (18, 3)

#: E11: a 3,000-packet session at 2% average loss, one quACK per 32
#: packets (``run_session``'s cadence), at four thresholds.
HEADROOM_LOSS = 0.02
HEADROOM_PACKETS = 3000
HEADROOM_THRESHOLDS = (5, 10, 20, 40)

#: Loss ratios at which the retransmission envelope is tabulated.
RETX_LOSSES = (0.005, 0.01, 0.02, 0.05, 0.10)


@dataclass(frozen=True)
class SchemeRow:
    """One Table 2 row: a scheme's construction/decode/size figures."""

    scheme: str
    construction: TimingResult
    decode: TimingResult | None
    decode_extrapolated_days: float | None
    size_bits: int


def table2_report(trials: int = 100) -> dict[str, SchemeRow]:
    """Rerun Table 2 at the paper's n and t: the two strawmen vs the
    power-sum quACK.

    Strawman 2's decode is *extrapolated* from a measured small-instance
    digest rate (the paper's ~7e+06 days entry is likewise an estimate --
    C(1000, 20) subsets cannot be enumerated); the probe instance is
    :data:`STRAWMAN2_PROBE`.
    """
    workload = make_workload(PAPER_N, PAPER_T, PAPER_B, SEED)
    received = workload.received.tolist()
    log = workload.sent.tolist()

    def build(quack):
        for identifier in received:
            quack.insert(identifier)
        return quack

    echo = build(EchoQuack(PAPER_B))
    hash_quack = build(HashQuack(PAPER_B))
    power = build(PowerSumQuack(PAPER_T, PAPER_B, PAPER_COUNT_BITS))

    probe = make_workload(*STRAWMAN2_PROBE, PAPER_B, SEED)
    probe_quack = HashQuack(PAPER_B, max_subsets=10_000_000)
    probe_quack.insert_many(probe.received.tolist())
    probe_log = probe.sent.tolist()
    digests_per_second = measure_throughput(
        lambda: probe_quack.decode(probe_log),
        items_per_call=HashQuack.subsets_to_search(probe.n, probe.num_missing),
        trials=5,
    )
    return {
        "strawman1": SchemeRow(
            scheme="Strawman 1 (echo)",
            construction=measure(lambda: build(EchoQuack(PAPER_B)),
                                 trials=trials),
            decode=measure(lambda: echo.decode(log), trials=trials),
            decode_extrapolated_days=None,
            size_bits=echo.wire_size_bits()),
        "strawman2": SchemeRow(
            scheme="Strawman 2 (hash)",
            construction=measure(lambda: build(HashQuack(PAPER_B)),
                                 trials=trials),
            decode=None,
            decode_extrapolated_days=HashQuack.estimate_decode_seconds(
                PAPER_N, PAPER_T, digests_per_second) / 86_400,
            size_bits=hash_quack.wire_size_bits()),
        "power_sum": SchemeRow(
            scheme="Power Sums",
            # The read completes the fold ``insert`` defers past its
            # first BATCH_CROSSOVER identifiers.
            construction=measure(lambda: build(PowerSumQuack(
                PAPER_T, PAPER_B, PAPER_COUNT_BITS)).power_sums,
                trials=trials),
            decode=measure(lambda: power.decode(log), trials=trials),
            decode_extrapolated_days=None,
            size_bits=power.wire_size_bits()),
    }


def fig5_series(thresholds: Sequence[int] = tuple(range(10, 51, 10)),
                bits_options: Sequence[int] = (16, 24, 32),
                n: int = PAPER_N, trials: int = 30,
                stat: str = "mean") -> dict[int, dict[int, float]]:
    """Figure 5: construction time (us) vs threshold, per bit width.

    Returns ``{bits: {threshold: us}}``.  The paper's claim to check:
    "the construction time is directly proportional to t".  ``stat``
    selects mean (paper methodology) or median (noise-robust).  The
    thresholds of one width are timed round-robin, so a swing in host
    speed cannot bend the curve at a single point.
    """
    series: dict[int, dict[int, float]] = {}
    for bits in bits_options:
        ids = make_workload(n, 0, bits, SEED).sent.tolist()

        def build(threshold: int) -> None:
            quack = PowerSumQuack(threshold, bits)
            for identifier in ids:
                quack.insert(identifier)
            quack.power_sums    # the read completes the fold
        timings = measure_interleaved(
            [partial(build, threshold) for threshold in thresholds],
            trials, 3)
        series[bits] = {
            threshold: (timing.median * 1e6 if stat == "median"
                        else timing.mean_us)
            for threshold, timing in zip(thresholds, timings)}
    return series


def fig6_series(missing_counts: Sequence[int] = (0, 5, 10, 15, 20),
                bits_options: Sequence[int] = (16, 24, 32),
                n: int = PAPER_N, trials: int = 50,
                stat: str = "mean") -> dict[int, dict[int, float]]:
    """Figure 6: decoding time (us) vs number of missing packets, at the
    paper's threshold.

    Returns ``{bits: {m: us}}``.  The paper's claims: decoding time is
    "directly proportional to m", and zero missing packets "takes
    virtually no time to decode".  ``stat`` selects ``"mean"`` (the
    paper's methodology) or ``"median"`` (robust to scheduler noise,
    used by the shape-checking benchmarks).
    """
    series: dict[int, dict[int, float]] = {}
    for bits in bits_options:
        per_bits: dict[int, float] = {}
        for m in missing_counts:
            workload = make_workload(n, m, bits, SEED)
            receiver = PowerSumQuack(PAPER_T, bits)
            receiver.insert_many(workload.received)
            sender = PowerSumQuack(PAPER_T, bits)
            sender.insert_many(workload.sent)
            delta = sender - receiver
            log = workload.sent.tolist()
            timing = measure(
                lambda: decode_delta(delta, log, method="candidates"),
                trials=trials)
            per_bits[m] = (timing.median * 1e6 if stat == "median"
                           else timing.mean_us)
        series[bits] = per_bits
    return series


def table3_report() -> dict[int, dict[str, float]]:
    """Table 3: collision probability per identifier width, vs the paper."""
    return {bits: {"ours": collision_probability(PAPER_N, bits),
                   "paper": paper}
            for bits, paper in PAPER_TABLE3.items()}


# -- the artifact table ------------------------------------------------------------

@dataclass(frozen=True)
class Artifact:
    """One row of :data:`ARTIFACTS`: a title and ``trials -> (table,
    note)``."""

    title: str
    compute: Callable[[int], tuple[Table, str]]

    def section(self, trials: int) -> Section:
        """The artifact computed at ``trials``: its table, then its note."""
        return Section(self.title, list(self.compute(trials)))


def _table2(trials: int) -> tuple[Table, str]:
    rows = []
    for key, row in table2_report(trials=trials).items():
        paper = PAPER_TABLE2[key]
        rows.append((
            row.scheme,
            f"{paper['construction_us']:g} us",
            f"{row.construction.mean_us:,.0f} us",
            f"{paper['decode_us']:,.0f} us" if "decode_us" in paper
            else f"~{paper['decode_days']:.0e} days",
            f"{row.decode.mean_us:,.0f} us" if row.decode
            else f"~{row.decode_extrapolated_days:.1e} days",
            f"{paper['size_bits']:,}", f"{row.size_bits:,}"))
    return (Table("", ("scheme", "construction (paper)",
                       "construction (ours)", "decoding (paper)",
                       "decoding (ours)", "size bits (paper)",
                       "size bits (ours)"), rows),
            f"Mean of {trials} trials with warmup. Strawman 2's decode is "
            "extrapolated from a measured digest rate, as the paper's is.")


def _table3(trials: int) -> tuple[Table, str]:
    return (Table("", ("bits", "paper", "ours"),
                  [(str(bits), f"{row['paper']:.2g}", f"{row['ours']:.3g}")
                   for bits, row in table3_report().items()]),
            f"Closed form at n = {PAPER_N}; no trials.")


def _curves(series: dict[int, dict[int, float]], x_label: str,
            trials: int, claim: str) -> tuple[Table, str]:
    xs = sorted({x for curve in series.values() for x in curve})
    return (Table("", (x_label, *(f"{bits}-bit (us)" for bits in series)),
                  [(str(x), *(f"{series[bits][x]:,.1f}" for bits in series))
                   for x in xs]),
            f"Mean of {trials} trials per point, n = {PAPER_N}. "
            f"Paper: {claim}.")


def _fig5(trials: int) -> tuple[Table, str]:
    trials = max(3, trials // 10)
    return _curves(fig5_series(trials=trials), "threshold t", trials,
                   "construction time is directly proportional to t")


def _fig6(trials: int) -> tuple[Table, str]:
    trials = max(5, trials // 5)
    return _curves(fig6_series(trials=trials), "missing m", trials,
                   "decoding time is directly proportional to m, and "
                   "m = 0 takes virtually no time")


def _sizing(trials: int) -> tuple[Table, str]:
    cc = frequency.cc_division_sizing()
    ack = frequency.ack_reduction_sizing()
    target = frequency.PAPER_TARGET_MISSING
    cc_name = "cc-division, 200 Mbps · 60 ms · 2%"
    ack_name = f"ack-reduction, every {ack.every_n} packets"
    rows = [
        (cc_name, "packets per RTT", "~1000", str(cc.packets_per_rtt)),
        (cc_name, "missing per RTT (threshold t)", "20", str(cc.threshold)),
        (cc_name, "quACK bytes (Strawman 1)", "82",
         f"{cc.quack_bytes} ({cc.strawman1_bytes})"),
        (cc_name, "overhead kbps (Strawman 1)", "-",
         f"{cc.quack_overhead_bps / 1e3:.2f} "
         f"({cc.strawman1_overhead_bps / 1e3:.1f})"),
        (ack_name, f"quACK bytes, t = {ack.threshold} (Strawman 1)", "-",
         f"{ack.quack_bytes} ({ack.strawman1_bytes})"),
        (ack_name, "bandwidth saving", "t < n wins",
         f"{ack.bandwidth_saving_factor:.2f}x"),
    ]
    rows += [(f"retransmission, {loss:.1%} loss", "quACK every N packets",
              "-", str(retransmission_cadence(loss, target)))
             for loss in RETX_LOSSES]
    return (Table("", ("envelope", "quantity", "paper", "ours"), rows),
            "Analytic (Section 4.3); the retransmission cadence targets "
            f"{target} missing packets per quACK, clamped.")


def _headroom(trials: int) -> tuple[Table, str]:
    trials = max(2, trials // 3)
    rows = []
    for threshold in HEADROOM_THRESHOLDS:
        survival = [survival_probability(threshold, HEADROOM_LOSS, burstiness,
                                         trials=trials, n=HEADROOM_PACKETS)
                    for burstiness in ("random", "bursty")]
        rows.append((str(threshold), *(f"{p:.2f}" for p in survival)))
    return (Table("", ("t", "random loss", "bursty loss"), rows),
            f"Extension, no paper value: P(a {HEADROOM_PACKETS:,}-packet "
            f"session survives) at {HEADROOM_LOSS:.0%} average loss, one "
            f"quACK per 32 packets, {trials} seeded trials per cell.")


#: The paper's evaluation, in the order ``tables all`` prints it.
ARTIFACTS: dict[str, Artifact] = {
    "table2": Artifact("Table 2 -- strawmen vs power sums "
                       "(n=1000, t=20, b=32)", _table2),
    "table3": Artifact("Table 3 -- collision probability (n=1000)", _table3),
    "fig5": Artifact("Figure 5 -- construction time vs threshold", _fig5),
    "fig6": Artifact("Figure 6 -- decoding time vs missing packets", _fig6),
    "sizing": Artifact("Section 4.3 -- communication-frequency envelopes",
                       _sizing),
    "headroom": Artifact("E11 -- threshold headroom under bursty loss",
                         _headroom),
}

