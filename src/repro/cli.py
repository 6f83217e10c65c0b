"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``quack encode``  -- build a power-sum quACK from received identifiers
  and print the wire frame as hex;
* ``quack decode``  -- decode a hex frame against a sent-identifier log;
* ``tables``        -- regenerate one artifact of the paper's evaluation
  (table2, table3, fig5, fig6, the Section 4.3 ``sizing`` envelopes,
  the E11 ``headroom`` extension) or ``all`` of them, as markdown tables
  with the paper's value beside ours;
* ``experiment``    -- run one of the E7-E9 protocol scenarios;
* ``chaos``         -- run a fault-injection scenario and check the
  robustness invariants (exit status 1 if any is violated);
* ``trace``         -- run a scenario with :mod:`repro.obs` enabled and
  print one report -- where the time went (split over the layers the
  repo benchmark times), where the packets went, why assistance
  stopped, what the trace covers, the metrics -- optionally exporting
  the trace as JSONL and the layer timings as a collapsed-stack
  flamegraph (``--flame``);
* ``analyze``       -- the same report, minus the time section, from an
  exported JSONL trace;
* ``sweep``         -- expand a scenario-matrix spec into seeded cells,
  shard them across worker processes, and write one aggregate artifact
  (exit status 1 if any cell failed); ``--telemetry``
  merges every worker's metrics into a sweep-wide telemetry block;
* ``slo``           -- evaluate declarative tail-latency budgets
  (``benchmarks/slo/*.json``) against freshly run scenarios or a saved
  telemetry snapshot, optionally beside a baseline snapshot
  (``--against``; exit status 1 when a budget is violated, 2 on a
  malformed file);
* ``vectors``       -- regenerate or validate the checked-in wire-format
  conformance vectors (``tests/vectors/*.json``; exit status 1 when a
  vector is stale or fails against the implementation).

Examples::

    python -m repro quack encode --ids 11,22,33 --threshold 4
    python -m repro quack decode --frame <hex> --log 11,22,33,44
    python -m repro tables table3
    python -m repro tables all --trials 3
    python -m repro experiment cc-division --loss 0.02 --total 500000
    python -m repro chaos blackout --seed 1
    python -m repro chaos all
    python -m repro trace cc-division --jsonl trace.jsonl --summary
    python -m repro analyze trace.jsonl
    python -m repro sweep examples/sweeps/retx_loss_delay.json \\
        --workers 4 --output sweep.json
    python -m repro sweep examples/sweeps/retx_loss_delay.json \\
        --resume sweep.json --output sweep.json
    python -m repro chaos all --flight-dir /tmp/flight
    python -m repro trace retransmission --filter sidecar. --summary
    python -m repro analyze trace.jsonl --spans
    python -m repro slo benchmarks/slo/seed_scenarios.json
    python -m repro vectors generate
    python -m repro vectors check
    python -m repro trace retransmission --flame out.folded
    python -m repro slo benchmarks/slo/seed_scenarios.json \\
        --snapshot after.json --against before.json
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from repro.errors import ArithmeticDomainError, WireFormatError
from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack


def _parse_ids(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part, 0) for part in text.split(",") if part]
    except ValueError as exc:
        raise SystemExit(f"error: bad identifier list {text!r}: {exc}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _loss_rate(text: str) -> float:
    rate = float(text)
    if not 0.0 <= rate < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {rate}")
    return rate


# -- quack ---------------------------------------------------------------------

def cmd_quack_encode(args: argparse.Namespace) -> int:
    try:
        quack = PowerSumQuack(threshold=args.threshold, bits=args.bits,
                              count_bits=args.count_bits)
    except ArithmeticDomainError as exc:
        raise SystemExit(f"error: {exc}")
    quack.insert_many(_parse_ids(args.ids))
    frame = wire.encode(quack)
    print(frame.hex())
    print(f"# {quack.count} identifiers folded, "
          f"{quack.wire_size_bits()} payload bits "
          f"({len(frame)} framed bytes)", file=sys.stderr)
    return 0


def cmd_quack_decode(args: argparse.Namespace) -> int:
    try:
        frame = bytes.fromhex(args.frame)
    except ValueError as exc:
        raise SystemExit(f"error: frame is not valid hex: {exc}")
    try:
        quack = wire.decode(frame)
    except WireFormatError as exc:
        raise SystemExit(f"error: frame does not decode: {exc}")
    if not isinstance(quack, PowerSumQuack):
        raise SystemExit("error: frame does not hold a power-sum quACK")
    log = _parse_ids(args.log)
    result = quack.decode(log)
    if not result.ok:
        print(f"decode failed: {result.status.value} "
              f"({result.num_missing} packets reported missing)")
        return 1
    print(f"missing ({len(result.missing)}): "
          f"{','.join(str(x) for x in result.missing) or '-'}")
    for group, count in result.indeterminate:
        print(f"indeterminate: {count} of "
              f"{','.join(str(x) for x in group)}")
    return 0


# -- tables ----------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench.tables import ARTIFACTS
    from repro.obs.analyze import render_markdown

    names = ARTIFACTS if args.which == "all" else (args.which,)
    for name in names:
        print(render_markdown([ARTIFACTS[name].section(args.trials)]),
              end="\n\n", flush=True)
    return 0


# -- experiments --------------------------------------------------------------------

def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.sweep.scenarios import SCENARIOS

    row = SCENARIOS[args.which]
    own = {keyword: getattr(args, dest)
           for dest, keyword in row.flags.items()}
    result = row.run(total_bytes=args.total, loss_rate=args.loss,
                     seed=args.seed, **{row.assist: not args.no_sidecar},
                     **own)
    print(row.format(result))
    return 0


# -- chaos ----------------------------------------------------------------------

def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.harness import PLANS, format_result, run_plan

    if args.list_plans:
        width = max(len(name) for name in PLANS)
        for name in sorted(PLANS):
            marker = "*" if PLANS[name].adversarial else " "
            print(f"{name:<{width}} {marker} {PLANS[name].description}")
        print("(* = adversarial plan, runs with the plausibility defense)")
        return 0
    if args.which is None:
        print("error: name a chaos plan, 'all', 'adversarial', or "
              "'overload' (--list-plans shows them)", file=sys.stderr)
        return 2
    suites = {"all": lambda plan: True,
              "adversarial": lambda plan: plan.adversarial,
              "overload": lambda plan: plan.overload}
    if args.which in suites:
        plans = tuple(sorted(name for name, plan in PLANS.items()
                             if suites[args.which](plan)))
    elif args.which in PLANS:
        plans = (args.which,)
    else:
        print(f"error: unknown chaos plan {args.which!r} "
              f"(--list-plans shows them)", file=sys.stderr)
        return 2
    failures = 0
    with _flight_recorder(args) as obs:
        if obs.FLIGHT.armed:
            # The black box wants every plan traced, so that an invariant
            # failure dumps the ring plus the implicated packet's span tree.
            obs.enable()
        for name in plans:
            if obs.FLIGHT.armed:
                obs.reset()
            result = run_plan(name, seed=args.seed, total_bytes=args.total)
            print(format_result(result))
            if len(plans) > 1:
                print("-" * 60)
            if not result.ok:
                failures += 1
    if failures:
        print(f"error: {failures} of {len(plans)} chaos plans violated "
              f"invariants", file=sys.stderr)
        return 1
    return 0


# -- the flight recorder (chaos, vectors check) -----------------------------------

def _add_flight_arguments(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help=f"arm the flight recorder: dump {what} to DIR")
    parser.add_argument("--flight-events", type=int, default=512,
                        metavar="N",
                        help="flight-recorder ring capacity: keep the last "
                             "N trace events in each dump")


@contextlib.contextmanager
def _flight_recorder(args: argparse.Namespace):
    """``repro.obs`` with the flight recorder armed when ``--flight-dir``
    asks for it; on the way out it is disarmed, tracing is off, and the
    dumps it wrote are listed."""
    from repro import obs

    if args.flight_dir:
        obs.FLIGHT.configure(args.flight_dir, last_n=args.flight_events)
    try:
        yield obs
    finally:
        obs.disable()
        obs.FLIGHT.disarm()
        for path in obs.FLIGHT.dumps if args.flight_dir else ():
            print(f"flight recorder: wrote {path}", file=sys.stderr)


# -- trace ----------------------------------------------------------------------

def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import perf
    from repro.obs.analyze import analyze, render_text
    from repro.obs.runner import run_report, run_traced
    from repro.obs.trace import export_jsonl

    result = run_traced(args.which, seed=args.seed, total_bytes=args.total,
                        loss=args.loss, capacity=args.capacity)
    if args.filter:
        prefixes = tuple(args.filter)
        result.events = [event for event in result.events
                         if event.type.startswith(prefixes)]
        result.analysis = analyze(result.events)
    written = []
    if args.jsonl:
        export_jsonl(result.events, args.jsonl)
        written.append(f"{len(result.events)} events to {args.jsonl}")
    if args.flame:
        perf.write_folded(result.path_times, args.flame)
        written.append(f"collapsed stacks to {args.flame}")
    for what in written:
        print(f"wrote {what}", file=sys.stderr)
    if args.summary or not written:
        print(render_text(run_report(result)))
    # A filtered view legitimately silences components; the
    # everything-instrumented check only applies to full traces.
    missing = [] if args.filter else result.missing_core_components()
    if missing:
        print(f"error: no trace events from: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


# -- analyze --------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        analyze,
        load_trace,
        render_markdown,
        render_text,
    )

    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.filter:
        prefixes = tuple(args.filter)
        trace.records = [record for record in trace.records
                         if record["type"].startswith(prefixes)]
    analysis = analyze(trace)
    unknown = [flow for flow in args.flow if flow not in analysis.flows]
    if unknown:
        print(f"error: no such flow(s): {', '.join(unknown)} (trace has: "
              f"{', '.join(analysis.flows) or 'none'})", file=sys.stderr)
        return 2
    report = analysis.report(flows=args.flow, spans=args.spans)
    print(render_markdown(report) if args.markdown
          else render_text(report, width=args.width))
    if analysis.malformed:
        print(f"warning: skipped {analysis.malformed} malformed lines",
              file=sys.stderr)
    return 0


# -- slo ------------------------------------------------------------------------

def cmd_slo(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.aggregate import load_json, telemetry_of
    from repro.obs.analyze import render_text
    from repro.obs.slo import (
        evaluate_budgets,
        load_budget_file,
        run_scenarios,
        verdict_section,
    )

    say = (lambda message: None) if args.quiet \
        else (lambda message: print(message, file=sys.stderr))
    violated = False
    try:
        snapshot, against = (telemetry_of(load_json(path)) if path else None
                             for path in (args.snapshot, args.against))
        docs = [(path, load_budget_file(path)) for path in args.budgets]
        for path, doc in docs:
            current = snapshot if snapshot is not None \
                else run_scenarios(doc, progress=say)
            verdicts = evaluate_budgets(doc["budgets"], current)
            baseline = None if against is None \
                else evaluate_budgets(doc["budgets"], against)
            print(render_text([verdict_section(path, verdicts, baseline)]))
            if any(not verdict.ok for verdict in verdicts):
                violated = True
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


# -- sweep ----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import SweepError
    from repro.sweep.artifact import format_aggregate, load_aggregate_dict
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec

    try:
        spec = SweepSpec.from_json_file(args.spec)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resume = None
    if args.resume:
        try:
            resume = load_aggregate_dict(args.resume)
        except SweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        aggregate = run_sweep(spec, workers=args.workers, resume=resume,
                              progress=lambda m: print(m, file=sys.stderr),
                              telemetry=args.telemetry)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        aggregate.save(args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    print(format_aggregate(aggregate.to_dict()))
    return 0 if aggregate.ok else 1


# -- vectors --------------------------------------------------------------------

def cmd_vectors(args: argparse.Namespace) -> int:
    from repro import vectors

    if args.vectors_command == "generate":
        for path in vectors.generate(args.dir):
            print(f"wrote {path}")
        return 0
    # Vector execution decodes hostile/corrupt wire bytes; armed, the
    # flight recorder dumps the evidence of any WireFormatError raised
    # mid-check, for the CI artifact upload.
    with _flight_recorder(args):
        problems = vectors.check(args.dir)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"error: {len(problems)} conformance-vector problem(s)",
              file=sys.stderr)
        return 1
    counts = {name: len(suite)
              for name, suite in vectors.build_vectors().items()}
    print(f"{sum(counts.values())} vectors pass "
          + "(" + ", ".join(f"{name}: {count}"
                            for name, count in sorted(counts.items())) + ")")
    return 0


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sidecar/quACK reproduction toolkit (HotNets '22)")
    sub = parser.add_subparsers(dest="command", required=True)

    quack = sub.add_parser("quack", help="encode/decode quACK frames")
    quack_sub = quack.add_subparsers(dest="quack_command", required=True)

    enc = quack_sub.add_parser("encode", help="received ids -> hex frame")
    enc.add_argument("--ids", default="", help="comma-separated identifiers")
    enc.add_argument("--threshold", type=_positive, default=20)
    enc.add_argument("--bits", type=_positive, default=32)
    enc.add_argument("--count-bits", type=_positive, default=16)
    enc.set_defaults(func=cmd_quack_encode)

    dec = quack_sub.add_parser("decode", help="hex frame + log -> missing")
    dec.add_argument("--frame", required=True, help="hex-encoded frame")
    dec.add_argument("--log", required=True,
                     help="comma-separated sent identifiers")
    dec.set_defaults(func=cmd_quack_decode)

    from repro.bench.tables import ARTIFACTS

    tables = sub.add_parser(
        "tables", help="regenerate paper artifacts as markdown tables")
    tables.add_argument("which", choices=(*ARTIFACTS, "all"))
    tables.add_argument("--trials", type=_positive, default=30,
                        help="timing trials; each artifact derives its "
                             "own count from it")
    tables.set_defaults(func=cmd_tables)

    from repro.obs.runner import known_scenarios
    from repro.sweep.scenarios import EXPERIMENT_SCENARIOS

    experiment = sub.add_parser("experiment",
                                help="run a protocol scenario (E7-E9)")
    experiment.add_argument("which", choices=EXPERIMENT_SCENARIOS)
    experiment.add_argument("--total", type=_positive, default=1_000_000)
    experiment.add_argument("--loss", type=_loss_rate, default=0.02)
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--every", type=_positive, default=32,
                            help="client ACK cadence (ack-reduction)")
    experiment.add_argument("--reorder-threshold", type=_positive,
                            default=64,
                            help="server loss tolerance (retransmission)")
    experiment.add_argument("--no-sidecar", action="store_true",
                            help="run the baseline without assistance")
    experiment.set_defaults(func=cmd_experiment)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection scenario (robustness)")
    chaos.add_argument("which", nargs="?",
                       help="a plan name, 'all', 'adversarial', or "
                            "'overload' (see --list-plans)")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the chaos plans with descriptions")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--total", type=_positive, default=1460 * 600,
                       help="transfer size in bytes")
    _add_flight_arguments(chaos, "the last trace events plus the "
                          "implicated packet's span tree, on any invariant "
                          "failure of a plan run traced,")
    chaos.set_defaults(func=cmd_chaos)

    # No abbreviations: "--json" is not a short "--jsonl".
    trace = sub.add_parser(
        "trace", help="run a scenario traced, its layers timed; print "
                      "one report: time, packets, assistance, coverage, "
                      "metrics", allow_abbrev=False)
    trace.add_argument("which", choices=known_scenarios())
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="export the trace events as JSON lines")
    trace.add_argument("--summary", action="store_true",
                       help="print the report (default when nothing is "
                            "written to a file)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--total", type=_positive, default=200_000,
                       help="transfer size in bytes")
    trace.add_argument("--loss", type=_loss_rate, default=0.02,
                       help="loss rate (experiment scenarios)")
    trace.add_argument("--capacity", type=_positive, default=65536,
                       help="trace ring-buffer capacity in events")
    trace.add_argument("--filter", action="append", default=[],
                       metavar="PREFIX",
                       help="keep only events whose type starts with "
                            "PREFIX, e.g. 'sidecar.' or 'link.drop' "
                            "(repeatable; ORed together)")
    trace.add_argument("--flame", default=None, metavar="PATH",
                       help="write collapsed-stack text (flamegraph.pl "
                            "/ speedscope input) to PATH")
    trace.set_defaults(func=cmd_trace)

    analyze = sub.add_parser(
        "analyze", help="the trace report (minus its time section) from "
                        "a JSONL trace")
    analyze.add_argument("trace", help="trace file written by "
                                       "'repro trace --jsonl'")
    analyze.add_argument("--markdown", action="store_true",
                         help="emit a markdown document instead of the "
                              "terminal report")
    analyze.add_argument("--flow", action="append", default=[],
                         metavar="FLOW",
                         help="restrict connection sections to this flow "
                              "(repeatable)")
    analyze.add_argument("--width", type=_positive, default=72,
                         help="chart width in characters")
    analyze.add_argument("--filter", action="append", default=[],
                         metavar="PREFIX",
                         help="keep only events whose type starts with "
                              "PREFIX (repeatable; ORed together)")
    analyze.add_argument("--spans", action="store_true",
                         help="add an example packet-lifecycle span tree "
                              "to the packets section")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser(
        "sweep", help="run a scenario matrix across worker processes")
    sweep.add_argument("spec", help="sweep spec JSON file (see "
                                    "examples/sweeps/)")
    sweep.add_argument("--workers", type=_positive, default=None,
                       metavar="N",
                       help="worker processes (default: spec override, "
                            "else one per CPU; 1 = serial)")
    sweep.add_argument("--resume", default=None, metavar="PARTIAL",
                       help="previously written aggregate; its completed "
                            "cells are carried over instead of re-run")
    sweep.add_argument("--output", default=None, metavar="PATH",
                       help="write the aggregate artifact here (a partial "
                            "sweep's output can seed --resume)")
    sweep.add_argument("--telemetry", action="store_true",
                       help="collect per-cell metrics in the workers and "
                            "merge them into the aggregate's sweep-wide "
                            "telemetry block")
    sweep.set_defaults(func=cmd_sweep)

    slo = sub.add_parser(
        "slo", help="evaluate tail-latency budgets against telemetry "
                    "(exit 1 on violation)")
    slo.add_argument("budgets", nargs="+", metavar="BUDGET",
                     help="slo-budgets JSON file(s), e.g. "
                          "benchmarks/slo/*.json")
    slo.add_argument("--snapshot", default=None, metavar="PATH",
                     help="evaluate against a saved telemetry snapshot or "
                          "a sweep aggregate with a telemetry block, "
                          "instead of running the budget's scenarios")
    slo.add_argument("--against", default=None, metavar="PATH",
                     help="baseline snapshot (same forms as --snapshot): "
                          "print each budget's value on it and the "
                          "current/baseline ratio; the verdict reads the "
                          "current side only")
    slo.add_argument("--quiet", action="store_true",
                     help="suppress per-scenario progress on stderr")
    slo.set_defaults(func=cmd_slo)

    vectors = sub.add_parser(
        "vectors", help="regenerate/validate wire-format conformance "
                        "vectors")
    vectors_sub = vectors.add_subparsers(dest="vectors_command",
                                         required=True)
    vectors_generate = vectors_sub.add_parser(
        "generate", help="derive the suites from the implementation and "
                         "(re)write tests/vectors/*.json")
    vectors_generate.add_argument("--dir", default="tests/vectors",
                                  help="vector directory")
    vectors_generate.set_defaults(func=cmd_vectors)
    vectors_check = vectors_sub.add_parser(
        "check", help="fail if any checked-in vector is stale or the "
                      "implementation no longer conforms to it")
    _add_flight_arguments(vectors_check,
                          "ring evidence, on WireFormatError,")
    vectors_check.add_argument("--dir", default="tests/vectors",
                               help="vector directory")
    vectors_check.set_defaults(func=cmd_vectors)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.  Detach
        # stdout first so the interpreter's shutdown flush cannot raise
        # the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
