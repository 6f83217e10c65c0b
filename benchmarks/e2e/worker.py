"""Measures one workload in this process and prints one JSON object.

Started by ``run.py`` in a fresh interpreter with ``PYTHONHASHSEED=0``
and ``REPRO_SCHEDULER`` unset.  Two modes besides ``--phase setup``
(build the inputs and exit, for ``setup_s``):

* timed (``--trace 0``): passes over the workload's units with nothing
  of the benchmark installed in the program and ``repro.obs`` off, then
  one more pass under ``cProfile`` for the call count;
* traced (``--trace 1``): a few untimed-by-the-driver passes for the
  ``host.*`` numbers, then passes with the span wrappers of
  ``tracing.py`` installed, one with ``repro.obs`` on, and the extra
  deterministic runs some counters need.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "src"))

import tracing  # noqa: E402  (beside this file; needs src on the path)
import workloads  # noqa: E402
from calib import CALIB_REF_US, calibrate  # noqa: E402
from repro import obs  # noqa: E402
from repro.netsim.core import default_scheduler  # noqa: E402
from repro.sidecar.accounting import FLOW_ACCOUNTS  # noqa: E402

TRACE_UNITS = 2        # units of the pass the traced mode runs
TRACE_BASE_PASSES = 3  # untraced passes behind host.* and the ratios
GROWTH_DIVISOR = 3     # plain only: cost per packet at size vs size/3
GROWTH_REPS = 3


class Failure(Exception):
    """A hygiene guard tripped: abort instead of measuring the wrong
    program."""


def guard_environment() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise Failure("PYTHONHASHSEED must be 0 (start through run.py)")
    if "REPRO_SCHEDULER" in os.environ:
        raise Failure("REPRO_SCHEDULER must be unset")


def guard_program() -> None:
    if obs.TRACER.enabled or obs.PROFILER.enabled:
        raise Failure("repro.obs is enabled before a timed pass")
    if FLOW_ACCOUNTS.armed:
        raise Failure("FLOW_ACCOUNTS is armed on entry")
    if default_scheduler() != "calendar":
        raise Failure(f"default scheduler is {default_scheduler()!r}")
    live = tracing.any_installed()
    if live:
        raise Failure(f"span wrappers live during a timed pass: {live}")


class Checker:
    """Output checks behind ``failed``: every unit execution is checked
    and must reproduce the first result of the same unit bit for bit."""

    def __init__(self) -> None:
        self.first: dict[str, tuple[str, dict]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, unit, result: dict) -> None:
        self.attempted += 1
        reason = unit.check(result)
        if reason is None:
            sha = workloads.digest(result)
            known = self.first.setdefault(unit.label, (sha, result))
            if known[0] != sha:
                reason = ("result differs between repetitions: "
                          + workloads.first_difference(known[1], result))
        if reason is not None:
            self.failures.append(f"{unit.label}: {reason}")


class Passes:
    """Timed passes over the units, a calibration before each and one
    after the last."""

    def __init__(self, units, checker) -> None:
        self.units, self.checker = units, checker
        self.ops = sum(unit.ops for unit in units)
        self.cpu: list[list[float]] = []    # [pass][unit] CPU seconds
        self.wall: list[float] = []         # [pass] wall seconds in units
        self.results: list[dict] = []       # of the last pass
        self.calib = [calibrate()]

    def run(self, count: int = 1) -> "Passes":
        for _ in range(count):
            cpu, wall, self.results = [], 0.0, []
            for unit in self.units:
                gc.collect()
                w0, c0 = perf_counter(), process_time()
                result = unit.run()
                cpu.append(process_time() - c0)
                wall += perf_counter() - w0
                self.checker(unit, result)
                self.results.append(result)
            self.cpu.append(cpu)
            self.wall.append(wall)
            self.calib.append(calibrate())
        return self

    def _pass_calib(self, index: int) -> float:
        """Mean of the calibrations before and after pass ``index``."""
        return (self.calib[index] + self.calib[index + 1]) / 2

    def norm_us_per_op(self) -> float:
        """Reference-machine microseconds per op: each unit's time is the
        median over passes of its CPU seconds divided by that pass's
        calibration; the workload's is their sum over its ops."""
        passes = range(len(self.cpu))
        return sum(
            statistics.median(self.cpu[p][u] / self._pass_calib(p)
                              for p in passes)
            for u in range(len(self.units))) * CALIB_REF_US / self.ops

    def samples(self) -> list[float]:
        """The same figure from each single pass."""
        return [sum(cpu) / self._pass_calib(p) * CALIB_REF_US / self.ops
                for p, cpu in enumerate(self.cpu)]

    def host_numbers(self) -> dict:
        """Raw (machine-dependent) numbers; reported, never bounded."""
        later = self.wall[1:] or self.wall
        return {
            "host.raw_us_per_op":
                statistics.median(self.wall) * 1e6 / self.ops,
            "host.rep_iqr_share": quartile_spread(self.samples()),
            "host.calib_ms": statistics.median(self.calib) * 1e3,
            "host.warmup_excess_s":
                self.wall[0] - statistics.median(later),
        }


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def with_units(values: dict[str, float], kind: str) -> dict:
    """Metric objects, each with the unit BENCHMARK.json gives its name."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {spec["name"]: spec["unit"] for spec in json.load(fh)[kind]}
    return {name: {"value": value, "unit": units[name]}
            for name, value in sorted(values.items())}


# -- timed mode -------------------------------------------------------------

def timed(units, seconds: float, smoke: bool, checker) -> dict:
    guard_program()
    passes = Passes(units, checker)
    started = perf_counter()
    while True:
        passes.run()
        if smoke or (len(passes.cpu) >= 2
                     and perf_counter() - started >= seconds):
            break
    guard_program()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    calls = 0
    for unit in units:
        profile = cProfile.Profile()
        profile.enable()
        result = unit.run()
        profile.disable()
        # Raw entries, one per code object: pstats keys rows by (file,
        # line, name), under which the generated ``__init__`` of two
        # dataclasses collide and the total depends on memory addresses.
        calls += sum(entry.callcount for entry in profile.getstats())
        checker(unit, result)

    return {
        "metrics": with_units({
            "norm_us_per_op": passes.norm_us_per_op(),
            "calls_per_op": calls / passes.ops,
            "peak_rss_mb": peak_rss_mb,
        }, "end_to_end"),
        "samples": {"norm_us_per_op": passes.samples(),
                    "unit_cpu_s": passes.cpu, "calib_s": passes.calib},
        "passes": len(passes.cpu), "units": len(units),
        "ops_per_pass": passes.ops, "host": passes.host_numbers(),
    }


# -- traced mode ------------------------------------------------------------

def traced(workload, units, seed: int, smoke: bool, checker,
           spans_out: str | None) -> dict:
    units = units[:TRACE_UNITS]
    guard_program()
    base = Passes(units, checker).run(1 if smoke else TRACE_BASE_PASSES)
    ops, base_us = base.ops, base.norm_us_per_op()
    layers = base.host_numbers()

    obs.enable()
    try:
        with_obs = Passes(units, checker).run()
    finally:
        obs.disable()
        obs.reset()
    layers["obs.enabled_cost_ratio"] = with_obs.norm_us_per_op() / base_us

    recorder = tracing.Recorder()
    recorder.install()
    try:
        for _ in range(1 if smoke else 2):   # the last pass is reported
            recorder.clear()
            traced_pass = Passes(units, checker).run()
    finally:
        recorder.remove()
    guard_program()
    results = traced_pass.results
    layers["trace.overhead_ratio"] = traced_pass.norm_us_per_op() / base_us

    self_time, calls = recorder.layer_times()
    for name in tracing.SPAN_NAMES:
        layers[f"{name}.self_us_per_op"] = self_time.get(name, 0.0) * 1e6 / ops
        layers[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
    missing = [name for name in workload.expect_spans if not calls.get(name)]
    if missing and not smoke:   # smoke inputs are too small to reach all
        raise Failure(f"{workload.name}: spans never entered (a wrapper "
                      f"missed a binding?): {missing}")
    # Share of the traced units' wall time inside a named span other
    # than the dispatch root, whose self time is unattributed callbacks.
    unit_wall = traced_pass.wall[0]
    attributed = sum(seconds for name, seconds in self_time.items()
                     if name != "netsim.run")
    layers["trace.attributed_share"] = attributed / unit_wall

    layers.update(counters(workload, results, recorder, calls, ops))
    layers.update(extra_runs(workload, units, seed, smoke, checker,
                             base_us, results))
    if spans_out:
        recorder.write_jsonl(spans_out)
    return {"metrics": with_units(layers, "per_layer"),
            "spans": len(recorder.names), "units": len(units),
            "ops_per_pass": ops}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counters(workload, results, recorder, calls, ops: int) -> dict:
    """Work counters read at the same boundaries as the spans: from the
    program's result objects, from the simulators and links seen by the
    wrappers, and from span call counts."""
    sums: dict[str, float] = {}
    for result in results:
        for key, value in workload.counters(result).items():
            sums[key] = sums.get(key, 0) + value
    sim = {"events_dispatched": 0, "heap_pushes": 0, "heap_pops": 0,
           "bucket_inserts": 0}
    for simulator in recorder.simulators.values():
        stats = simulator.resource_stats()
        for key in sim:
            sim[key] += stats.get(key, 0)
    offered = dropped = 0
    for link in recorder.links.values():
        offered += link.stats.offered
        dropped += (link.stats.dropped_queue + link.stats.dropped_loss
                    + link.stats.dropped_fault)
    quacks = sums.get("quacks", 0)
    decodes = calls.get("quack.decode_delta", 0)
    encodes = calls.get("quack.wire_encode", 0)
    return {
        "netsim.events_per_op": sim["events_dispatched"] / ops,
        "netsim.heap_ops_per_event": _share(
            sim["heap_pushes"] + sim["heap_pops"], sim["events_dispatched"]),
        "netsim.bucket_inserts_per_op": sim["bucket_inserts"] / ops,
        "netsim.link_drop_share": _share(dropped, offered),
        "transport.packets_sent_per_op": sums.get("packets_sent", 0) / ops,
        "transport.retransmit_share": _share(sums.get("retransmits", 0),
                                             sums.get("packets_sent", 0)),
        "transport.acks_per_op": calls.get("transport.sender_rx", 0) / ops,
        "sidecar.quacks_per_op": quacks / ops,
        "sidecar.decode_fail_share": _share(sums.get("decode_failures", 0),
                                            quacks),
        "sidecar.proxy_repairs_per_op": sums.get("proxy_repairs", 0) / ops,
        "sidecar.flows_evicted": sums.get("flows_evicted", 0),
        "sidecar.flows_shed": sums.get("flows_shed", 0),
        "sidecar.bank_bytes_per_flow": _share(sums.get("peak_bank_bytes", 0),
                                              sums.get("peak_flows", 0)),
        "sidecar.peak_bank_bytes": sums.get("peak_bank_bytes", 0),
        "sidecar.frames_per_batch": _share(quacks, sums.get("batches", 0)),
        "quack.wire_bytes_per_quack": _share(recorder.wire_bytes, encodes),
        "quack.missing_per_decode": _share(recorder.decoded_missing, decodes),
        "sim.goodput_mbps": sums.get("goodput_bps", 0.0) / 1e6
        / len(results),
        "sim.emission_p99_ms": sums.get("emission_p99_s", 0.0) * 1e3
        / len(results),
    }


def extra_runs(workload, units, seed: int, smoke: bool, checker,
               base_us: float, results) -> dict:
    """The two counters that need runs of their own (untraced)."""
    extra = {"sidecar.assist_goodput_gain": 0.0,
             "transport.us_per_packet_growth": 0.0}
    if workload.unassisted is not None:
        unit = workload.unassisted(seed, smoke)
        bare = unit.run()
        checker(unit, bare)
        extra["sidecar.assist_goodput_gain"] = (
            results[0]["goodput_bps"] / bare["goodput_bps"])
    if workload.name == "plain":
        size = (workloads.SMOKE_TRANSFER_BYTES if smoke
                else workloads.TRANSFER_BYTES) // GROWTH_DIVISOR
        small = workload.build(seed, smoke, total_bytes=size)[:len(units)]
        passes = Passes(small, checker).run(1 if smoke else GROWTH_REPS)
        extra["transport.us_per_packet_growth"] = (
            base_us / passes.norm_us_per_op())
    return extra


# -- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    units = workload.build(args.seed, args.smoke)
    if args.phase == "setup":
        return 0

    checker = Checker()
    try:
        guard_environment()
        # Warm-up, discarded: the first unit at smoke size, so lazy
        # imports and the program's own caches are filled before
        # anything is timed.
        warmup = workload.build(args.seed, True)[0]
        checker(warmup, warmup.run())
        if args.trace:
            body = traced(workload, units, args.seed, args.smoke, checker,
                          args.spans_out)
        else:
            body = timed(units, args.seconds, args.smoke, checker)
    except Failure as failure:
        print(f"worker: {failure}", file=sys.stderr)
        return 3
    body.update(correct=not checker.failures, attempted=checker.attempted,
                failed=len(checker.failures), failures=checker.failures[:10])
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
