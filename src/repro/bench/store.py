"""Continuous benchmark store: snapshot, persist, and gate on regressions.

The reproduction's performance claims (Table 2 timings, the
no-overhead-when-disabled observability guarantee, the E7-E9 protocol
outcomes) were, before this module, numbers that scrolled past in a
report.  The store makes them durable and comparable:

* :func:`record` runs the collectors for one or more *areas* and writes
  one ``BENCH_<area>.json`` per area -- schema-versioned, stamped with
  the git revision and a machine fingerprint, every metric carried as
  mean/stdev/n with its unit and its improvement direction;
* :func:`compare_snapshots` diffs a current snapshot against a baseline
  and renders a threshold-based verdict: a *lower-is-better* metric
  regresses when ``current > baseline * threshold``, a
  *higher-is-better* metric when ``current * threshold < baseline``,
  and ``info`` metrics never gate.

Two kinds of metric live side by side and the direction/threshold
machinery treats them uniformly:

* **wall-clock timings** (quACK construction/decode, obs hot-path
  costs) vary across machines, so CI compares them with a deliberately
  generous threshold (2x) that only trips on order-of-magnitude rot;
* **virtual-time protocol outcomes** (completion time, goodput, ACK
  counts from the deterministic simulator) are machine-independent --
  an identical tree re-run reproduces them bit-for-bit, so *any*
  movement is a real behavior change.

CLI::

    python -m repro bench record --quick --dir /tmp/bench
    python -m repro bench compare --current /tmp/bench \
        --baseline benchmarks/baselines
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.errors import BenchStoreError

#: Version of the on-disk snapshot format.  Readers accept any file with
#: ``schema <= SCHEMA_VERSION`` (newer writers must stay additive);
#: a file from a *newer* schema is refused rather than misread.
SCHEMA_VERSION = 1

#: Valid improvement directions for a metric.
DIRECTIONS = ("lower", "higher", "info")

#: Default regression threshold (ratio).  Generous on purpose: CI runs
#: on shared machines, and the store's job is catching order-of-magnitude
#: rot, not scheduler noise.
DEFAULT_THRESHOLD = 2.0


@dataclass(frozen=True)
class Metric:
    """One recorded measurement with its gating semantics."""

    name: str
    mean: float
    stdev: float = 0.0
    n: int = 1
    unit: str = ""
    #: ``lower`` / ``higher`` (is better) gate comparisons; ``info``
    #: metrics are recorded and reported but never regress.
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise BenchStoreError(
                f"metric {self.name!r}: direction must be one of "
                f"{DIRECTIONS}, got {self.direction!r}")

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stdev": self.stdev, "n": self.n,
                "unit": self.unit, "direction": self.direction}

    @classmethod
    def from_dict(cls, name: str, record: Mapping) -> "Metric":
        """Decode one metric record, ignoring unknown keys."""
        try:
            return cls(
                name=name,
                mean=float(record["mean"]),
                stdev=float(record.get("stdev", 0.0)),
                n=int(record.get("n", 1)),
                unit=str(record.get("unit", "")),
                direction=str(record.get("direction", "lower")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchStoreError(
                f"metric {name!r}: malformed record {record!r}: "
                f"{exc}") from exc


@dataclass(frozen=True)
class BenchSnapshot:
    """One area's recorded metrics plus provenance.

    ``git_rev`` is the commit the snapshot was recorded at (best-effort
    ``git rev-parse``; ``None`` -- JSON ``null`` -- outside a
    repository), so ``repro diff`` can name the two commits it
    compares.
    """

    area: str
    metrics: dict[str, Metric]
    recorded_at: str = ""
    git_rev: str | None = None
    quick: bool = False
    fingerprint: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "area": self.area,
            "recorded_at": self.recorded_at,
            "git_rev": self.git_rev,
            "quick": self.quick,
            "fingerprint": dict(self.fingerprint),
            "metrics": {name: metric.to_dict()
                        for name, metric in sorted(self.metrics.items())},
        }


def machine_fingerprint() -> dict:
    """Enough about this machine to judge snapshot comparability."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
    }


def git_revision(cwd: str | None = None) -> str | None:
    """The working tree's HEAD, or ``None`` outside a repository."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if output.returncode != 0:
        return None
    return output.stdout.strip() or None


# -- collectors ---------------------------------------------------------------
#
# One collector per area, each returning {metric name: Metric}.  Quick
# mode shrinks instance sizes / trial counts for CI; the metric names do
# not change, so quick and full snapshots still compare (their quick
# flags are carried so the report can say the comparison is approximate).

def _timing_metric(name: str, result, unit: str = "us",
                   scale: float = 1e6) -> Metric:
    return Metric(name=name, mean=result.mean * scale,
                  stdev=result.stdev * scale, n=result.trials, unit=unit,
                  direction="lower")


def collect_quack(quick: bool = False) -> dict[str, Metric]:
    """Table 2's power-sum hot path plus the analytic artifacts."""
    from repro.bench.timing import measure
    from repro.bench.workloads import make_workload
    from repro.quack.collision import collision_probability
    from repro.quack.decoder import decode_delta
    from repro.quack.power_sum import PowerSumQuack

    n = 300 if quick else 1000
    trials = 10 if quick else 60
    threshold, bits = 20, 32
    workload = make_workload(n=n, num_missing=threshold, bits=bits, seed=0)
    sent = workload.sent.tolist()
    received = workload.received.tolist()

    def construct() -> PowerSumQuack:
        quack = PowerSumQuack(threshold, bits)
        quack.insert_many(received)
        return quack

    mine = PowerSumQuack(threshold, bits)
    mine.insert_many(sent)
    delta = mine - construct()
    sent_log = [int(identifier) for identifier in sent]

    construction = measure(construct, trials=trials)
    decode = measure(lambda: decode_delta(delta, sent_log,
                                          method="candidates"),
                     trials=trials)
    metrics = {
        f"construct_{n}_us": _timing_metric(f"construct_{n}_us",
                                            construction),
        f"decode_{n}_t{threshold}_us": _timing_metric(
            f"decode_{n}_t{threshold}_us", decode),
        "quack_bytes": Metric(
            name="quack_bytes",
            mean=mine.wire_size_bits() / 8,
            unit="bytes", direction="lower"),
        "collision_p_32": Metric(
            name="collision_p_32",
            mean=collision_probability(1000, 32),
            unit="probability", direction="info"),
    }
    return metrics


def collect_obs(quick: bool = False) -> dict[str, Metric]:
    """Observability hot-path costs: enabled emit/count, disabled guard."""
    from repro.bench.timing import measure
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    batch = 200 if quick else 1000
    trials = 10 if quick else 40

    enabled = Tracer()
    enabled.configure(capacity=batch * 2)

    def emit_batch() -> None:
        for index in range(batch):
            enabled.emit("transport.send", 0.001 * index, flow="flow0",
                         pn=index, size=1200)

    disabled = Tracer()

    def guard_batch() -> None:
        for index in range(batch):
            if disabled.enabled:
                disabled.emit("transport.send", 0.001 * index,
                              flow="flow0", pn=index, size=1200)

    registry = MetricsRegistry()

    def count_batch() -> None:
        counter = registry.counter("bench_events_total", labels=("flow",))
        for _ in range(batch):
            counter.labels(flow="flow0").inc()

    per_event = 1e9 / batch  # seconds/batch -> ns/event
    return {
        "emit_enabled_ns": _timing_metric(
            "emit_enabled_ns", measure(emit_batch, trials=trials),
            unit="ns", scale=per_event),
        "emit_disabled_guard_ns": _timing_metric(
            "emit_disabled_guard_ns", measure(guard_batch, trials=trials),
            unit="ns", scale=per_event),
        "counter_inc_ns": _timing_metric(
            "counter_inc_ns", measure(count_batch, trials=trials),
            unit="ns", scale=per_event),
    }


def collect_protocols(quick: bool = False) -> dict[str, Metric]:
    """E7-E9 outcomes from the deterministic virtual-time simulator.

    These are *not* wall-clock: the simulator is seeded and
    event-ordered, so the numbers are machine-independent and any
    movement between snapshots of the same tree is a behavior change.
    """
    from repro.sidecar.ack_reduction import run_ack_reduction
    from repro.sidecar.cc_division import run_cc_division
    from repro.sidecar.retransmission import run_retransmission

    total_bytes = 120_000 if quick else 500_000

    cc = run_cc_division(total_bytes=total_bytes, sidecar=True, seed=1)
    ack = run_ack_reduction(total_bytes=total_bytes, ack_every=32,
                            sidecar=True, seed=1)
    retx = run_retransmission(total_bytes=total_bytes, innet_retx=True,
                              seed=1)

    def sim_metric(name: str, value: float, unit: str,
                   direction: str) -> Metric:
        return Metric(name=name, mean=float(value), stdev=0.0, n=1,
                      unit=unit, direction=direction)

    return {
        "cc_division_completion_s": sim_metric(
            "cc_division_completion_s", cc.completion_time, "s", "lower"),
        "cc_division_goodput_bps": sim_metric(
            "cc_division_goodput_bps",
            total_bytes * 8 / cc.completion_time, "bps", "higher"),
        "ack_reduction_completion_s": sim_metric(
            "ack_reduction_completion_s", ack.completion_time, "s",
            "lower"),
        "ack_reduction_client_acks": sim_metric(
            "ack_reduction_client_acks", ack.client_acks_sent, "acks",
            "lower"),
        "retransmission_completion_s": sim_metric(
            "retransmission_completion_s", retx.completion_time, "s",
            "lower"),
        "retransmission_proxy_repairs": sim_metric(
            "retransmission_proxy_repairs", retx.proxy_retransmissions,
            "packets", "info"),
    }


def collect_negotiate(quick: bool = False) -> dict[str, Metric]:
    """Negotiation overhead: what the capability handshake costs.

    The versioning milestone's promise is that negotiation is cheap --
    one offer round trip, a few hundred bytes, assistance starting
    within the first RTTs of the transfer -- and that a mid-connection
    VERSION-SWITCH adds nothing.  These are virtual-time outcomes from
    the deterministic chaos harness, machine-independent like
    :func:`collect_protocols`; ``quick`` changes nothing because the
    plans are fixed-size.  Any movement between snapshots of the same
    tree is a behavior change.
    """
    del quick  # the plans are fixed-size and deterministic
    from repro.chaos.harness import run_plan

    skew = run_plan("version-skew", seed=1)
    switch = run_plan("version-switch", seed=1)

    def sim_metric(name: str, value: float, unit: str,
                   direction: str) -> Metric:
        return Metric(name=name, mean=float(value), stdev=0.0, n=1,
                      unit=unit, direction=direction)

    return {
        "handshake_bytes": sim_metric(
            "handshake_bytes", skew.handshake_bytes, "bytes", "lower"),
        "handshake_rtts": sim_metric(
            "handshake_rtts", skew.server_counters["hellos_sent"],
            "round-trips", "lower"),
        "assistance_start_s": sim_metric(
            "assistance_start_s", skew.assistance_started_s or 0.0,
            "s", "lower"),
        "negotiated_version": sim_metric(
            "negotiated_version", skew.negotiated_version or 0,
            "version", "info"),
        "switch_completion_s": sim_metric(
            "switch_completion_s", switch.duration_s, "s", "lower"),
        "switch_stale_frames": sim_metric(
            "switch_stale_frames",
            switch.server_counters["stale_version_frames"], "frames",
            "lower"),
        "switch_retransmissions": sim_metric(
            "switch_retransmissions", switch.retransmitted_packets,
            "packets", "info"),
    }


def collect_simcore(quick: bool = False) -> dict[str, Metric]:
    """Simulator-core throughput: the trajectory the scheduler rework
    (ROADMAP item 5) has to beat.

    Three wall-clock rates plus one deterministic cost signature:

    * ``events_per_sec`` -- the *scheduler-throughput benchmark*:
      dispatch rate of a burst-loaded queue.  N events are pre-scheduled
      across a dense near horizon (untimed setup), then drained by one
      ``run()`` -- only the drain is inside the clock
      (:func:`~repro.bench.timing.measure_staged`).  This is the regime
      the calendar queue's batched dispatch targets (whole same-tick
      buckets dequeued at once).  Before the calendar rework this metric
      measured a 64-timer self-rescheduling loop on the heap scheduler
      at ~314k events/s; the old loop itself lives on unchanged as
      ``timer_loop_events_per_sec``.
    * ``timer_loop_events_per_sec`` -- the original self-rescheduling
      timer loop (schedule + dispatch combined; pure scheduler cost, no
      protocol work), for continuity with the pre-rework measurements.
    * ``packets_per_sec`` -- packets the full retransmission scenario
      pushes through per wall-clock second (protocol + scheduler);
    * ``heap_ops_per_event`` -- binary-heap pushes+pops per dispatched
      event on the scheduler-throughput workload, machine-independent:
      a plain binary heap does 2.0 by construction, the calendar queue
      touches a heap only for far-future overflow and mid-batch
      arrivals (~0 here).
    """
    from time import perf_counter

    from repro.bench.timing import measure, measure_staged
    from repro.netsim.core import Simulator
    from repro.sidecar.retransmission import run_retransmission

    n_events = 50_000 if quick else 200_000
    timers = 64
    trials = 5 if quick else 10

    counters: dict[str, int] = {}

    def build_burst() -> Simulator:
        # Burst arrival: n_events across 500 distinct timestamps inside
        # a 50 ms horizon (dense same-bucket batches).  Untimed.
        sim = Simulator()
        fired = [0]

        def on_event() -> None:
            fired[0] += 1

        schedule = sim.schedule
        step = 0.05 / 500
        for index in range(n_events):
            schedule((index % 500) * step, on_event)
        return sim

    def drain_burst(sim: Simulator) -> None:
        # The timed region: one drain of the pre-loaded queue.
        sim.run()
        counters.update(sim.resource_stats())

    burst = measure_staged(build_burst, drain_burst, trials=trials)
    heap_ops = (counters["heap_pushes"] + counters["heap_pops"]) \
        / max(counters["events_dispatched"], 1)

    loop_counters: dict[str, int] = {}

    def drive_loop() -> None:
        sim = Simulator()
        remaining = [n_events]

        def tick(index: int) -> None:
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            sim.schedule(0.001 * ((index % 7) + 1), tick, index + 1)

        for index in range(timers):
            sim.schedule(0.0001 * index, tick, index)
        sim.run()
        loop_counters.update(sim.resource_stats())

    loop = measure(drive_loop, trials=trials)

    total_bytes = 120_000 if quick else 500_000
    started = perf_counter()
    retx = run_retransmission(total_bytes=total_bytes, innet_retx=True,
                              seed=1)
    wall = perf_counter() - started
    packets = retx.server_packets_sent + retx.proxy_retransmissions

    return {
        "events_per_sec": Metric(
            name="events_per_sec", mean=n_events / burst.mean,
            stdev=(n_events / burst.mean ** 2) * burst.stdev,
            n=burst.trials, unit="events/s", direction="higher"),
        "timer_loop_events_per_sec": Metric(
            name="timer_loop_events_per_sec", mean=n_events / loop.mean,
            stdev=(n_events / loop.mean ** 2) * loop.stdev, n=loop.trials,
            unit="events/s", direction="higher"),
        "heap_ops_per_event": Metric(
            name="heap_ops_per_event", mean=heap_ops,
            unit="ops/event", direction="lower"),
        "packets_per_sec": Metric(
            name="packets_per_sec", mean=packets / wall,
            unit="packets/s", direction="higher"),
        "sim_events_dispatched": Metric(
            name="sim_events_dispatched",
            mean=float(counters["events_dispatched"]),
            unit="events", direction="info"),
    }


def collect_scale(quick: bool = False) -> dict[str, Metric]:
    """Multi-tenant flow-table throughput and tail latency.

    One :func:`~repro.sidecar.flowtable.run_scale` population -- flows
    spread over eight tenants with steady churn -- yields both kinds of
    metric at once: ``flows_per_sec`` is wall-clock (how fast the table
    admits, drives, and tears down the population, scheduler included,
    gated at the generous 2x threshold), while the memory footprint and
    the emission-latency tail are deterministic virtual-time outcomes a
    la :func:`collect_protocols` -- any movement is a behavior change.
    """
    from time import perf_counter

    from repro.sidecar.flowtable import run_scale

    flows = 5_000 if quick else 20_000
    started = perf_counter()
    result = run_scale(flows=flows, tenants=8, packets_per_flow=4,
                       churn_rate=0.2, duration_s=1.0, seed=1,
                       account=True)
    wall = perf_counter() - started

    def sim_metric(name: str, value: float, unit: str,
                   direction: str) -> Metric:
        return Metric(name=name, mean=float(value), stdev=0.0, n=1,
                      unit=unit, direction=direction)

    driven = result["flows_admitted"] + result["flows_closed"]
    return {
        "flows_per_sec": Metric(
            name="flows_per_sec", mean=driven / wall,
            unit="flows/s", direction="higher"),
        "bytes_per_flow": sim_metric(
            "bytes_per_flow",
            result["ledger_bank_bytes"] / max(result["ledger_flows"], 1),
            "bytes", "lower"),
        "peak_bank_bytes": sim_metric(
            "peak_bank_bytes", result["peak_bank_bytes"], "bytes",
            "lower"),
        "emission_latency_p99_s": sim_metric(
            "emission_latency_p99_s", result["emission_latency_p99_s"],
            "s", "lower"),
        "flows_evicted": sim_metric(
            "flows_evicted", result["flows_evicted"], "flows", "info"),
        "flows_shed": sim_metric(
            "flows_shed", result["flows_shed"], "flows", "info"),
    }


#: Area name -> collector.  ``record`` runs these.
COLLECTORS: dict[str, Callable[[bool], dict[str, Metric]]] = {
    "quack": collect_quack,
    "obs": collect_obs,
    "protocols": collect_protocols,
    "negotiate": collect_negotiate,
    "simcore": collect_simcore,
    "scale": collect_scale,
}


# -- persistence --------------------------------------------------------------

def snapshot_path(directory: str, area: str) -> str:
    return os.path.join(directory, f"BENCH_{area}.json")


def profile_path(directory: str, area: str) -> str:
    """Where the area's hierarchical profile snapshot lives."""
    return os.path.join(directory, f"PROFILE_{area}.json")


def _record_profile(directory: str, area: str, rev: str | None) -> str:
    """Run the area's collector once more under the hierarchical profiler.

    The *timed* collector pass above runs uninstrumented so its
    wall-clock numbers stay comparable with checked-in baselines; this
    extra quick pass trades accuracy of the absolute numbers for span
    attribution, and its output (``PROFILE_<area>.json``) feeds
    ``repro diff`` / ``repro bench compare`` regression hints.
    """
    from repro.obs import PROFILER, perf
    from repro.obs.metrics import MetricsRegistry

    scratch = MetricsRegistry()
    PROFILER.reset()
    PROFILER.configure(scratch)
    try:
        COLLECTORS[area](True)
        doc = perf.profile_snapshot(
            PROFILER, scenario=f"bench:{area}", git_rev=rev)
    finally:
        PROFILER.disable()
        PROFILER.reset()
    return perf.write_profile(doc, profile_path(directory, area))


def record(directory: str, areas: Iterable[str] | None = None,
           quick: bool = False,
           progress: Callable[[str], None] | None = None,
           profile: bool = True) -> dict[str, BenchSnapshot]:
    """Run collectors and write one ``BENCH_<area>.json`` per area.

    With ``profile`` (the default) each area also gets a
    ``PROFILE_<area>.json`` hierarchical span snapshot from a separate
    quick instrumented pass -- the timed pass stays uninstrumented.
    """
    chosen = tuple(areas) if areas is not None else tuple(sorted(COLLECTORS))
    unknown = [area for area in chosen if area not in COLLECTORS]
    if unknown:
        raise BenchStoreError(
            f"unknown bench area(s) {', '.join(unknown)}; have "
            f"{', '.join(sorted(COLLECTORS))}")
    os.makedirs(directory, exist_ok=True)
    stamp = _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds")
    rev = git_revision()
    fingerprint = machine_fingerprint()
    snapshots: dict[str, BenchSnapshot] = {}
    for area in chosen:
        if progress is not None:
            progress(f"collecting {area}...")
        snapshot = BenchSnapshot(
            area=area,
            metrics=COLLECTORS[area](quick),
            recorded_at=stamp,
            git_rev=rev,
            quick=quick,
            fingerprint=fingerprint,
        )
        write_snapshot(snapshot, directory)
        if profile:
            if progress is not None:
                progress(f"profiling {area}...")
            _record_profile(directory, area, rev)
        snapshots[area] = snapshot
    return snapshots


def _flatten_telemetry(telemetry: Mapping) -> dict[str, float]:
    """Scalar bench metrics from a merged telemetry snapshot.

    Counters/gauges flatten to one sample per series; histogram series
    flatten to their count plus exact-to-bucket p50/p99.  Keys look like
    ``telemetry_quack_decodes_total{status=ok}`` so they stay unique per
    label set.  Everything is virtual-time derived, hence ``info``.
    """
    from repro.obs.aggregate import summarize_snapshot

    flat: dict[str, float] = {}
    for name, series in summarize_snapshot(dict(telemetry)).items():
        for entry in series:
            labels = entry.get("labels", {})
            tag = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
            base = f"telemetry_{name}" + (f"{{{tag}}}" if tag else "")
            if "value" in entry:
                stats = {"": entry["value"]}
            else:
                stats = {"_count": entry["count"], "_p50": entry["p50"],
                         "_p99": entry["p99"]}
            for suffix, value in stats.items():
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                flat[base + suffix] = float(value)
    return flat


def snapshot_from_sweep(aggregate: Mapping,
                        quick: bool = False) -> BenchSnapshot:
    """Flatten a sweep aggregate into a bench snapshot.

    Every numeric scalar in each ``ok`` cell's result becomes a metric
    sample; samples with the same key are pooled across cells as
    mean/stdev/n.  All sweep metrics are deterministic virtual-time
    outcomes, so they are recorded with direction ``info`` (sweeps gate
    on their own determinism tests, not on the 2x timing threshold) --
    except ``sweep_failed_cells``, which is ``lower``-is-better and
    *does* gate: a sweep that starts failing cells is a regression.

    The area name is ``sweep_<name>``, so ``BENCH_sweep_<name>.json``
    sits beside the collector-produced snapshots and flows through
    :func:`compare_dirs` unchanged.
    """
    if not isinstance(aggregate, Mapping) \
            or aggregate.get("kind") != "sweep-aggregate":
        raise BenchStoreError(
            "snapshot_from_sweep needs a sweep aggregate dict "
            "(kind == 'sweep-aggregate')")
    name = aggregate.get("name")
    if not isinstance(name, str) or not name:
        raise BenchStoreError("sweep aggregate has no 'name'")
    samples: dict[str, list[float]] = {}
    for cell in aggregate.get("cells", ()):
        if cell.get("status") != "ok" \
                or not isinstance(cell.get("result"), Mapping):
            continue
        for key, value in cell["result"].items():
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            samples.setdefault(key, []).append(float(value))
    metrics: dict[str, Metric] = {}
    for key, values in sorted(samples.items()):
        mean = sum(values) / len(values)
        variance = (sum((v - mean) ** 2 for v in values)
                    / (len(values) - 1)) if len(values) > 1 else 0.0
        metrics[key] = Metric(name=key, mean=mean,
                              stdev=variance ** 0.5, n=len(values),
                              direction="info")
    telemetry = aggregate.get("telemetry")
    if telemetry:
        for key, value in sorted(_flatten_telemetry(telemetry).items()):
            metrics[key] = Metric(name=key, mean=value, n=1,
                                  direction="info")
    summary = aggregate.get("summary", {})
    metrics["sweep_failed_cells"] = Metric(
        name="sweep_failed_cells",
        mean=float(summary.get("failed", 0)),
        n=1, unit="cells", direction="lower")
    return BenchSnapshot(
        area=f"sweep_{name}",
        metrics=metrics,
        recorded_at=_datetime.datetime.now(
            _datetime.timezone.utc).isoformat(timespec="seconds"),
        git_rev=git_revision(),
        quick=quick,
        fingerprint=machine_fingerprint(),
    )


def write_snapshot(snapshot: BenchSnapshot, directory: str) -> str:
    """Persist one snapshot as ``BENCH_<area>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = snapshot_path(directory, snapshot.area)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> BenchSnapshot:
    """Read one snapshot file (forward-compatible within the schema).

    Unknown top-level and per-metric keys are ignored so older readers
    keep working against additive writers; a file declaring a *newer*
    schema than this reader supports is refused.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record_ = json.load(handle)
    except OSError as exc:
        raise BenchStoreError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchStoreError(
            f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(record_, dict):
        raise BenchStoreError(f"snapshot {path} must be a JSON object")
    schema = record_.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool):
        raise BenchStoreError(f"snapshot {path} has no integer 'schema'")
    if schema > SCHEMA_VERSION:
        raise BenchStoreError(
            f"snapshot {path} uses schema {schema}, newer than the "
            f"supported {SCHEMA_VERSION}; upgrade before comparing")
    area = record_.get("area")
    if not isinstance(area, str) or not area:
        raise BenchStoreError(f"snapshot {path} has no 'area'")
    raw_metrics = record_.get("metrics")
    if not isinstance(raw_metrics, dict):
        raise BenchStoreError(f"snapshot {path} has no 'metrics' object")
    metrics = {name: Metric.from_dict(name, value)
               for name, value in raw_metrics.items()
               if isinstance(value, Mapping)}
    fingerprint = record_.get("fingerprint")
    rev = record_.get("git_rev")
    return BenchSnapshot(
        area=area,
        metrics=metrics,
        recorded_at=str(record_.get("recorded_at", "")),
        git_rev=rev if isinstance(rev, str) and rev != "unknown" else None,
        quick=bool(record_.get("quick", False)),
        fingerprint=dict(fingerprint)
        if isinstance(fingerprint, Mapping) else {},
        schema=schema,
    )


def load_dir(directory: str) -> dict[str, BenchSnapshot]:
    """Every ``BENCH_*.json`` in ``directory``, keyed by area."""
    snapshots: dict[str, BenchSnapshot] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise BenchStoreError(
            f"cannot list snapshot dir {directory}: {exc}") from exc
    for name in names:
        if name.startswith("BENCH_") and name.endswith(".json"):
            snapshot = load_snapshot(os.path.join(directory, name))
            snapshots[snapshot.area] = snapshot
    return snapshots


# -- comparison ---------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between baseline and current."""

    name: str
    unit: str
    direction: str
    baseline: float | None
    current: float | None
    #: ``current / baseline`` (None when undefined: zero or missing side).
    ratio: float | None
    regressed: bool
    note: str = ""


@dataclass
class AreaComparison:
    """The verdict for one area."""

    area: str
    deltas: list[MetricDelta]
    baseline_quick: bool = False
    current_quick: bool = False

    @property
    def regressions(self) -> list[MetricDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _delta(metric_name: str, baseline: Metric | None,
           current: Metric | None, threshold: float) -> MetricDelta:
    if baseline is None:
        assert current is not None
        return MetricDelta(
            name=metric_name, unit=current.unit,
            direction=current.direction, baseline=None,
            current=current.mean, ratio=None, regressed=False,
            note="new metric (no baseline)")
    if current is None:
        return MetricDelta(
            name=metric_name, unit=baseline.unit,
            direction=baseline.direction, baseline=baseline.mean,
            current=None, ratio=None, regressed=True,
            note="metric disappeared from current snapshot")
    direction = baseline.direction
    ratio = (current.mean / baseline.mean) if baseline.mean else None
    regressed = False
    note = ""
    if direction == "lower":
        regressed = current.mean > baseline.mean * threshold \
            and current.mean > 0
    elif direction == "higher":
        regressed = current.mean * threshold < baseline.mean
    if baseline.mean == 0 and current.mean != 0 and direction != "info":
        regressed, note = True, "moved off a zero baseline"
    return MetricDelta(name=metric_name, unit=baseline.unit,
                       direction=direction, baseline=baseline.mean,
                       current=current.mean, ratio=ratio,
                       regressed=regressed, note=note)


def compare_snapshots(current: BenchSnapshot, baseline: BenchSnapshot,
                      threshold: float = DEFAULT_THRESHOLD
                      ) -> AreaComparison:
    """Diff two snapshots of one area with the threshold verdict."""
    if current.area != baseline.area:
        raise BenchStoreError(
            f"cannot compare area {current.area!r} against baseline "
            f"area {baseline.area!r}")
    if threshold <= 1.0:
        raise BenchStoreError(
            f"threshold must be > 1.0 (a ratio), got {threshold}")
    names = sorted(set(current.metrics) | set(baseline.metrics))
    deltas = [_delta(name, baseline.metrics.get(name),
                     current.metrics.get(name), threshold)
              for name in names]
    return AreaComparison(area=current.area, deltas=deltas,
                          baseline_quick=baseline.quick,
                          current_quick=current.quick)


def compare_dirs(current_dir: str, baseline_dir: str,
                 threshold: float = DEFAULT_THRESHOLD
                 ) -> list[AreaComparison]:
    """Compare every area present in *both* directories.

    Areas only on one side are skipped (a new area has no baseline to
    gate against; record one).  An empty intersection is an error -- a
    comparison that compares nothing should not pass CI silently.
    """
    current = load_dir(current_dir)
    baseline = load_dir(baseline_dir)
    shared = sorted(set(current) & set(baseline))
    if not shared:
        raise BenchStoreError(
            f"no common bench areas between {current_dir} "
            f"(has {sorted(current) or 'nothing'}) and {baseline_dir} "
            f"(has {sorted(baseline) or 'nothing'})")
    return [compare_snapshots(current[area], baseline[area],
                              threshold=threshold)
            for area in shared]


def format_comparison(comparisons: Iterable[AreaComparison],
                      threshold: float = DEFAULT_THRESHOLD) -> str:
    """Human-readable verdict table for ``bench compare``."""
    lines: list[str] = []
    total_regressions = 0
    for comparison in comparisons:
        quick_note = ""
        if comparison.baseline_quick != comparison.current_quick:
            quick_note = "  (quick/full mismatch -- approximate)"
        lines.append(f"area {comparison.area}:{quick_note}")
        for delta in comparison.deltas:
            ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "-"
            baseline = (f"{delta.baseline:,.4g}"
                        if delta.baseline is not None else "-")
            current = (f"{delta.current:,.4g}"
                       if delta.current is not None else "-")
            marker = "REGRESSED" if delta.regressed else "ok"
            note = f"  [{delta.note}]" if delta.note else ""
            lines.append(
                f"  {marker:<9s} {delta.name:<32s} "
                f"{baseline:>12s} -> {current:>12s} {delta.unit:<11s} "
                f"({ratio}, {delta.direction}){note}")
        total_regressions += len(comparison.regressions)
    lines.append("")
    if total_regressions:
        lines.append(f"FAIL: {total_regressions} metric(s) regressed "
                     f"past the {threshold:g}x threshold")
    else:
        lines.append(f"OK: no metric moved past the {threshold:g}x "
                     f"threshold")
    return "\n".join(lines)
