"""The seven benchmark workloads: inputs, calls, ops and output checks.

A workload is a fixed list of *units*; one *pass* runs every unit once.
A unit is one call of a public entry point of ``repro`` with inputs made
from ``--seed``; its *ops* are a constant of the inputs (data packets of
the transfer, requested flow-ticks, identifiers), never a count the
program reports.  The transfer workloads whose cost depends on where the
random losses fall run several units per pass, one per sub-seed, so that
a run averages over loss patterns (see README.md, "Why sub-seeds").

Nothing here measures; ``worker.py`` does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Callable

from repro.bench.workloads import make_workload
from repro.quack import decoder, wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.flowtable import run_scale
from repro.sidecar.retransmission import run_retransmission

MSS = 1460
TRANSFER_BYTES = 1_500_000          # 1,028 data packets
SMOKE_TRANSFER_BYTES = 300_000
FLOWS, TENANTS, PACKETS_PER_FLOW = 20_000, 8, 4
SMOKE_FLOWS = 2_000
TIGHT_BUDGET_BYTES = 36_000         # 0.4x run_scale's default at 20k/8
CODEC_N, CODEC_T, CODEC_BITS = 1000, 20, 32
CODEC_MISSING = (0, 1, 5, 20)
CODEC_ROUNDS, SMOKE_CODEC_ROUNDS = 20, 2


@dataclass(frozen=True)
class Unit:
    """One call into the program: what to run, how much work it stands
    for, and how to tell its output is right."""

    label: str
    ops: int
    run: Callable[[], dict]
    check: Callable[[dict], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, smoke) -> the units of one pass.
    build: Callable[[int, bool], list[Unit]]
    #: Spans the traced pass must see at least once (hygiene guard).
    expect_spans: tuple[str, ...]
    #: unit result -> work counters read from the program's own result.
    counters: Callable[[dict], dict]
    #: (seed, smoke) -> the first unit's call with the sidecar off, for
    #: ``sidecar.assist_goodput_gain``; None where there is no such call.
    unassisted: Callable[[int, bool], Unit] | None = None


def digest(result: dict) -> str:
    """SHA-256 of the JSON-serialised result (the determinism check)."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def first_difference(a: dict, b: dict) -> str:
    """Name one field on which two results of the same unit differ."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return "no field differs"


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# -- transfers --------------------------------------------------------------

def _check_transfer(result: dict) -> str | None:
    if not result["completed"]:
        return "transfer did not complete"
    time = result["completion_time"]
    if time is None or not math.isfinite(time) or time <= 0:
        return f"completion_time is {time!r}"
    return None


def _transfers(entry, label: str, count: int, pool=None, **fixed):
    """A builder of ``count`` units calling ``entry``, each on another
    scenario seed: consecutive sub-seeds of ``--seed``, or a sample of
    ``pool`` drawn with it.  ``override`` replaces arguments (sidecar
    off, other size)."""

    def build(seed: int, smoke: bool, **override) -> list[Unit]:
        size = override.pop(
            "total_bytes", SMOKE_TRANSFER_BYTES if smoke else TRANSFER_BYTES)
        seeds = (random.Random(seed).sample(pool, count) if pool
                 else [_sub_seed(seed, index) for index in range(count)])
        units = []
        for scenario_seed in seeds[:1 if smoke else count]:
            kwargs = dict(fixed, **override, total_bytes=size,
                          seed=scenario_seed)
            variant = "".join(f",{k}={v}" for k, v in sorted(override.items()))
            units.append(Unit(
                label=f"{label}[{kwargs['seed']}]/{size}{variant}",
                ops=-(-size // MSS),
                run=lambda kwargs=kwargs: asdict(entry(**kwargs)),
                check=_check_transfer))
        return units

    return build


_retx = _transfers(run_retransmission, "retx", 8, innet_retx=True)
# loss_rate=0 on the ACK-reduction pair: with random loss the cost of
# one transfer swings up to 5x on whether the first loss falls inside
# slow start (README.md), which no affordable number of sub-seeds
# averages out.  Congestion then comes from the bottleneck queue alone,
# and the seed has no effect on these two workloads.
_plain = _transfers(run_ack_reduction, "plain", 1,
                    sidecar=False, ack_every=2, loss_rate=0.0)
_ackred = _transfers(run_ack_reduction, "ackred", 1,
                     sidecar=True, ack_every=32, loss_rate=0.0)
# With the sidecar on, a transfer whose last retransmission is lost on
# the access hop never completes at HEAD (the quACK has released the
# bytes in flight, so the PTO is disarmed): 4 of 300 scenario seeds.  A
# workload may not contain operations that fail, so ccdiv draws from the
# seeds on which the transfer completes, at full and at smoke size.
CCDIV_SEEDS = tuple(s for s in range(1, 52) if s not in (2, 40, 42))
_ccdiv = _transfers(run_cc_division, "ccdiv", 3, pool=CCDIV_SEEDS,
                    sidecar=True)


def _transfer_counters(quacks: str, decode_failures: tuple[str, ...],
                       proxy_repairs: str | None = None):
    """Counter reader for a transfer result with these field names."""

    def read(result: dict) -> dict:
        proxy = result.get("proxy_stats") or {}
        return {"packets_sent": result["server_packets_sent"],
                "retransmits": result["server_retransmissions"],
                "goodput_bps": result["goodput_bps"],
                "quacks": result[quacks],
                "decode_failures": (
                    sum(result[name] for name in decode_failures)
                    + proxy.get("decode_failures", 0)),
                "proxy_repairs": result[proxy_repairs] if proxy_repairs
                else 0}

    return read


# -- flow table -------------------------------------------------------------

def _flowtable_units(label: str, **extra):

    def build(seed: int, smoke: bool) -> list[Unit]:
        flows = SMOKE_FLOWS if smoke else FLOWS
        kwargs = dict(flows=flows, tenants=TENANTS,
                      packets_per_flow=PACKETS_PER_FLOW, churn_rate=0.2,
                      duration_s=1.0, account=True, seed=seed)
        if "tenant_budget_bytes" in extra:
            # Keep the budget at the same 0.4x of the default when the
            # smoke run shrinks the population.
            kwargs["tenant_budget_bytes"] = (
                extra["tenant_budget_bytes"] * flows // FLOWS)
        requested = flows * PACKETS_PER_FLOW

        def check(result: dict) -> str | None:
            if result["observations"] > requested:
                return (f"observations {result['observations']} > "
                        f"{requested} requested")
            cap = TENANTS * result["tenant_budget_bytes"]
            if result["peak_bank_bytes"] > cap:
                return f"peak_bank_bytes {result['peak_bank_bytes']} > {cap}"
            if result["ledger_bank_bytes"] > result["peak_bank_bytes"]:
                return "ledger_bank_bytes exceeds peak_bank_bytes"
            return None

        return [Unit(label=f"{label}[{seed}]/{flows}", ops=requested,
                     run=lambda: run_scale(**kwargs), check=check)]

    return build


def _flowtable_counters(result: dict) -> dict:
    return {"quacks": result["frames_batched"],
            "batches": result["batches"],
            "flows_evicted": result["flows_evicted"],
            "flows_shed": result["flows_shed"],
            "peak_bank_bytes": result["peak_bank_bytes"],
            "peak_flows": result["peak_flows"],
            "emission_p99_s": result["emission_latency_p99_s"]}


# -- quACK codec ------------------------------------------------------------

def _codec_build(seed: int, smoke: bool) -> list[Unit]:
    rounds = SMOKE_CODEC_ROUNDS if smoke else CODEC_ROUNDS
    inputs = []
    for index in range(rounds):
        made = make_workload(
            n=CODEC_N, num_missing=CODEC_MISSING[index % len(CODEC_MISSING)],
            bits=CODEC_BITS, seed=_sub_seed(seed, index))
        inputs.append(([int(x) for x in made.sent],
                       [int(x) for x in made.received],
                       list(made.missing)))

    def run() -> dict:
        decoded, frames = [], hashlib.sha256()
        for sent, received, _truth in inputs:
            theirs = PowerSumQuack(CODEC_T, CODEC_BITS)
            for identifier in received:
                theirs.insert(identifier)
            frame = wire.encode(theirs)
            frames.update(frame)
            theirs = wire.decode(frame)
            mine = PowerSumQuack(CODEC_T, CODEC_BITS)
            for identifier in sent:
                mine.insert(identifier)
            result = decoder.decode_delta(mine - theirs, sent)
            decoded.append({"status": result.status.value,
                            "missing": list(result.missing)})
        return {"decoded": decoded, "frames_sha256": frames.hexdigest()}

    def check(result: dict) -> str | None:
        for index, (round_, (_s, _r, truth)) in enumerate(
                zip(result["decoded"], inputs)):
            if round_["status"] != "ok" or round_["missing"] != truth:
                return f"round {index}: decoded set differs from the truth"
        return None

    return [Unit(label=f"quack-codec[{seed}]/{rounds}", ops=CODEC_N * rounds,
                 run=run, check=check)]


# -- the table --------------------------------------------------------------

_NETSIM = ("netsim.run", "netsim.link_send", "netsim.node_receive")
_TRANSPORT = ("transport.sender_rx", "transport.receiver_rx",
              "transport.rangeset_add", "ids.identifier")
_DECODE = ("quack.insert", "quack.sub", "quack.decode_delta",
           "quack.wire_encode", "quack.wire_decode", "arith.newton",
           "arith.roots", "arith.poly_divmod")
_PROXY = ("sidecar.tap_observe", "sidecar.consumer_on_quack",
          "sidecar.consumer_record_send", "sidecar.emitter_note",
          "sidecar.emitter_emit")
_SERVER = ("transport.sidecar_receipt", "sidecar.server_rx", "quack.remove")
_FLOWTABLE = ("netsim.run", "sidecar.flowtable_admit",
              "sidecar.flowtable_observe", "sidecar.flowtable_flush",
              "sidecar.flowtable_close_flow", "sidecar.emitter_note",
              "sidecar.emitter_emit", "quack.insert")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="plain", build=_plain,
        expect_spans=_NETSIM + _TRANSPORT,
        counters=_transfer_counters(
            "proxy_quacks_sent", ("server_sidecar_failures",))),
    Workload(
        name="retx", build=_retx,
        expect_spans=_NETSIM + _TRANSPORT + _DECODE + _PROXY,
        counters=_transfer_counters(
            "proxy_quacks", ("proxy_decode_failures",),
            "proxy_retransmissions"),
        unassisted=lambda seed, smoke: _retx(seed, smoke,
                                            innet_retx=False)[0]),
    Workload(
        name="ackred", build=_ackred,
        expect_spans=_NETSIM + _TRANSPORT + _DECODE + _PROXY + _SERVER,
        counters=_transfer_counters(
            "proxy_quacks_sent", ("server_sidecar_failures",)),
        unassisted=lambda seed, smoke: _ackred(seed, smoke,
                                              sidecar=False)[0]),
    Workload(
        name="ccdiv", build=_ccdiv,
        expect_spans=_NETSIM + _TRANSPORT + _DECODE + _PROXY + _SERVER,
        counters=_transfer_counters(
            "client_quacks", ("server_sidecar_failures",)),
        unassisted=lambda seed, smoke: _ccdiv(seed, smoke,
                                             sidecar=False)[0]),
    Workload(
        name="flowtable",
        build=_flowtable_units("flowtable"),
        expect_spans=_FLOWTABLE, counters=_flowtable_counters),
    Workload(
        name="flowtable-evict",
        build=_flowtable_units("flowtable-evict",
                               tenant_budget_bytes=TIGHT_BUDGET_BYTES),
        expect_spans=_FLOWTABLE, counters=_flowtable_counters),
    Workload(
        name="quack-codec", build=_codec_build,
        expect_spans=_DECODE,
        counters=lambda result: {}),
)}
