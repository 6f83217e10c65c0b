"""The one reader of a trace: one pass over the events, one report.

:mod:`repro.obs.trace` records *what happened*; this module says *what it
means*.  :func:`analyze` takes a trace -- in-memory
:class:`~repro.obs.trace.TraceEvent` objects or the lines of a JSONL
export -- and walks it once, in time order.  Each record

* is replayed through a private :class:`~repro.obs.trace.Tracer`, so the
  counts the report states (sends, retransmits, losses, PTOs, decode
  statuses, violations, resumes, ...) are the metrics
  ``schema.EVENT_METRICS`` derives from it -- the table the live run
  used, not a second tally kept by hand;
* is handed to the span builder (:mod:`repro.obs.causal`), whose trees
  say who repaired each packet and how fast: retransmission
  attribution with exact detection latencies, the packet-fate classes,
  and whether the trace lost its beginning (lowest packet number > 0);
* leaves behind only what no counter can hold: cwnd / in-flight / sRTT
  points, the missing-set size of each decode, health transitions with
  their reason, quarantines, resume handshakes.

:meth:`TraceAnalysis.report` lays the result out as sections --
**packets**, **assistance**, **coverage**, **metrics**; a live run
(:mod:`repro.obs.runner`) puts **time** in front -- each a heading over
lines, tables and charts.  :func:`render_text` and
:func:`render_markdown` walk that structure and know no event or metric
name, so a fact is formatted once.

Parsing is forgiving where the schema validator is strict: an analysis
of a partially corrupt or foreign trace *skips and counts* what it
cannot read, never crashes.  ``python -m repro analyze trace.jsonl``
prints the report of a file ``python -m repro trace X --jsonl`` wrote.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from repro.errors import ObservabilityError
from repro.obs.aggregate import select_series
from repro.obs.causal import CausalAnalysis, PacketSpan, SpanBuilder
from repro.obs.metrics import MetricsRegistry, series_rows
from repro.obs.schema import as_record, component_of
from repro.obs.trace import Tracer

#: Causes the attribution table lists first, in narrative order.
KNOWN_CAUSES = ("quack", "ack", "pto")


# -- the report model -----------------------------------------------------------

class Table(NamedTuple):
    """A captioned grid of already formatted cells."""

    caption: str
    columns: tuple[str, ...]
    rows: list[tuple[str, ...]]


class Chart(NamedTuple):
    """A series to draw (block characters in both renderers)."""

    label: str
    values: list[float]
    height: int


class Section(NamedTuple):
    """A heading over lines (``str``), tables and charts."""

    title: str
    items: list


def ascii_chart(values: Sequence[float], width: int = 72, height: int = 12,
                label: str = "") -> str:
    """Render a series as a block-character chart.

    Values are bucketed to ``width`` columns (bucket mean) and scaled to
    ``height`` rows.  Returns a multi-line string; empty input yields a
    placeholder.
    """
    if width < 1 or height < 1:
        raise ValueError("chart dimensions must be positive")
    series = [float(v) for v in values]
    if not series:
        return f"{label} (no data)"
    count = min(width, len(series))
    columns: list[float] = []
    for i in range(count):
        lo = i * len(series) // count
        bucket = series[lo:max(lo + 1, (i + 1) * len(series) // count)]
        columns.append(sum(bucket) / len(bucket))
    top, bottom = max(columns), min(columns)
    span = top - bottom or 1.0
    # The bottom row's cutoff equals the minimum, so every column paints
    # at least one cell (flat series render as a floor line).
    rows = ["".join("#" if value >= bottom + span * (row - 1) / height
                    else " " for value in columns)
            for row in range(height, 0, -1)]
    header = f"[min {bottom:.3g}, max {top:.3g}]"
    return "\n".join([f"{label}  {header}" if label else header] + rows)


def render_text(report: Sequence[Section], width: int = 72) -> str:
    """The terminal form: ``== title ==`` headings, aligned tables."""
    lines: list[str] = []
    for section in report:
        lines += ["", f"== {section.title} =="]
        for item in section.items:
            if isinstance(item, Chart):
                lines.append(ascii_chart(item.values, width, item.height,
                                         item.label))
            elif isinstance(item, Table):
                grid = [item.columns, *item.rows]
                # A column of numbers lines up on the right, any other on
                # the left; "+3.2" and "-" (no value) count as numbers.
                pads = []
                for header, *cells in zip(*grid):
                    numeric = all(cell[:1].isdigit() or cell[:1] in "+-"
                                  for cell in cells)
                    pads.append((str.rjust if numeric else str.ljust,
                                 max(map(len, (header, *cells)))))
                if item.caption:
                    lines.append(item.caption)
                lines += ["  " + "  ".join(
                    pad(cell, size) for cell, (pad, size)
                    in zip(row, pads)).rstrip() for row in grid]
            else:
                lines.append(item)
    return "\n".join(lines[1:])


def render_markdown(report: Sequence[Section]) -> str:
    """The same report as a self-contained markdown document."""
    lines: list[str] = []
    for section in report:
        lines += ["", f"## {section.title}", ""]
        for item in section.items:
            if isinstance(item, Chart):
                lines += ["", "```", ascii_chart(item.values, 72, item.height,
                                                 item.label), "```", ""]
            elif isinstance(item, Table):
                lines += ["", f"**{item.caption}**"] if item.caption else []
                lines += ["", "| " + " | ".join(item.columns) + " |",
                          "|" + "---|" * len(item.columns)]
                lines += ["| " + " | ".join(row) + " |" for row in item.rows]
                lines.append("")
            else:
                lines.append(f"* {item}")
    return re.sub(r"\n{3,}", "\n\n", "\n".join(lines)).strip()


# -- parsing ------------------------------------------------------------------

@dataclass
class ParsedTrace:
    """Normalised trace records plus the count of items skipped."""

    records: list[dict]
    malformed: int


def parse_lines(lines: Iterable[object]) -> ParsedTrace:
    """Normalise JSONL lines (or events), skipping and counting anything
    malformed: not valid JSON, not an object, no string ``type``, no
    finite numeric ``t``.  Unknown event *types* are kept -- consumers
    ignore what they do not know -- so traces from newer schema versions
    still analyze.  Blank lines are not items."""
    records: list[dict] = []
    malformed = 0
    for line in lines:
        if isinstance(line, str) and not line.strip():
            continue
        try:
            records.append(as_record(line))
        except ObservabilityError:
            malformed += 1
    return ParsedTrace(records, malformed)


def load_trace(path: str) -> ParsedTrace:
    """Read and parse one JSONL trace file (malformed lines tolerated)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_lines(handle)


# -- the pass -------------------------------------------------------------------

class TimelinePoint(NamedTuple):
    """One instant of a connection's state (one ``transport.cwnd``)."""

    time: float
    cwnd: float
    in_flight: float
    srtt: float | None


def _fmt_ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.2f}"


def _tally(counts: dict[str, float]) -> str:
    return ", ".join(f"{name}={int(count)}"
                     for name, count in sorted(counts.items()))


class TraceAnalysis:
    """What one pass over a trace found; :meth:`report` lays it out."""

    def __init__(self, trace: ParsedTrace) -> None:
        records = sorted(trace.records, key=lambda record: record["t"])
        self.events = len(records)
        self.malformed = trace.malformed
        self.start = records[0]["t"] if records else None
        self.end = records[-1]["t"] if records else None
        self.components: dict[str, int] = {}
        #: Records lacking (or mistyping) a field their metrics or the
        #: collectors below read; their share of the counts is missing.
        self.unreadable = 0
        #: flow -> its cwnd / in-flight / sRTT points, in time order.
        self.points: dict[str, list[TimelinePoint]] = {}
        #: flow -> (completion time, bytes).
        self.completed: dict[str, tuple[float, int]] = {}
        #: (time, status, missing-set size) of every quACK decode.
        self.decodes: list[tuple[float, str, int]] = []
        #: Resets issued while the latest decode had succeeded -- the
        #: session restarted without decode evidence of a broken channel.
        self.false_positive_resets = 0
        #: (time, old, new, reason) of every health-ladder transition.
        self.transitions: list[tuple[float, str, str, str]] = []
        self.quarantines: list[tuple[float, str]] = []      # (time, kind)
        self.resumes: list[tuple[float, str, str]] = []  # (time, role, phase)
        self.checkpoint_bytes_last: int | None = None
        self.gap_reconciled = 0

        replay = Tracer(MetricsRegistry())
        replay.enabled = True           # metrics-only mode: no sink
        builder = SpanBuilder()
        for record in records:
            etype, time = record["type"], record["t"]
            component = component_of(etype)
            self.components[component] = self.components.get(component, 0) + 1
            fields = {key: value for key, value in record.items()
                      if key not in ("t", "type")}
            builder.add(time, etype, fields)
            try:
                replay.emit(etype, time, **fields)
                collect = self._COLLECT.get(etype)
                if collect is not None:
                    collect(self, time, fields)
            except (KeyError, TypeError, ValueError):
                self.unreadable += 1
        #: Snapshot of the metrics the events derive (the live run's
        #: ``obs.METRICS`` minus what is written directly at a site).
        self.metrics = replay.registry.snapshot()
        self.spans: CausalAnalysis = builder.finish()

    # -- what no counter can hold (one collector per event type) ----------

    def _cwnd(self, time: float, fields: dict) -> None:
        srtt = fields["srtt"]
        self.points.setdefault(fields["flow"], []).append(TimelinePoint(
            time, float(fields["cwnd"]), float(fields["in_flight"]),
            None if srtt is None else float(srtt)))

    def _complete(self, time: float, fields: dict) -> None:
        self.completed[fields["flow"]] = (time, int(fields["bytes"]))

    def _decode(self, time: float, fields: dict) -> None:
        self.decodes.append((time, fields["status"], int(fields["missing"])))

    def _reset(self, time: float, fields: dict) -> None:
        if self.decodes and self.decodes[-1][1] == "ok":
            self.false_positive_resets += 1

    def _health(self, time: float, fields: dict) -> None:
        self.transitions.append((time, fields["old"], fields["new"],
                                 fields["reason"] or ""))

    def _quarantine(self, time: float, fields: dict) -> None:
        self.quarantines.append((time, fields["kind"]))

    def _resume(self, time: float, fields: dict) -> None:
        self.resumes.append((time, fields["role"], fields["phase"]))

    def _checkpoint(self, time: float, fields: dict) -> None:
        self.checkpoint_bytes_last = int(fields["bytes"])

    def _gap_reconciled(self, time: float, fields: dict) -> None:
        self.gap_reconciled += int(fields["packets"])

    _COLLECT = {
        "transport.cwnd": _cwnd,
        "transport.complete": _complete,
        "quack.decode": _decode,
        "sidecar.reset": _reset,
        "sidecar.health": _health,
        "sidecar.quarantine": _quarantine,
        "sidecar.resume": _resume,
        "sidecar.checkpoint": _checkpoint,
        "sidecar.gap_reconciled": _gap_reconciled,
    }

    # -- reading the replayed metrics -------------------------------------

    def by_label(self, metric: str, label: str,
                 **where: object) -> dict[str, float]:
        """``{value of label: summed count}`` over the series of
        ``metric`` whose other labels match ``where``."""
        counts: dict[str, float] = {}
        for entry in select_series(self.metrics, metric, where):
            key = entry["labels"][label]
            counts[key] = counts.get(key, 0) + entry["value"]
        return counts

    def count(self, metric: str, **where: object) -> int:
        """Summed value of the series of ``metric`` matching ``where``."""
        return int(sum(entry["value"] for entry
                       in select_series(self.metrics, metric, where)))

    # -- derived ----------------------------------------------------------

    @property
    def flows(self) -> list[str]:
        """Every flow that sent, reported its window, or completed."""
        return sorted({*self.by_label("transport_packets_sent_total", "flow"),
                       *self.points, *self.completed})

    @property
    def truncated(self) -> bool:
        """The trace demonstrably lost its beginning."""
        return any(pn > 0 for pn in self.spans.lowest_pn().values())

    def dwell(self) -> dict[str, float]:
        """Seconds spent on each rung of the degradation ladder.

        The state before the first transition is that transition's
        ``old``; the interval before the first trace event and after the
        last is not counted (the trace only witnesses what it spans).
        """
        dwell: dict[str, float] = {}
        if not self.transitions:
            return dwell
        cursor, state = self.start, self.transitions[0][1]
        for time, _old, new, _reason in self.transitions:
            dwell[state] = dwell.get(state, 0.0) + max(time - cursor, 0.0)
            cursor, state = max(time, cursor), new
        dwell[state] = dwell.get(state, 0.0) + max(self.end - cursor, 0.0)
        return dwell

    def resume_latencies(self) -> list[float]:
        """Announce-to-verdict time of each resume handshake: every
        emitter ``sent`` paired with the next consumer verdict after it
        -- the restart-to-reassistance delay the checkpoint/restore path
        is supposed to keep under one round trip."""
        latencies: list[float] = []
        pending: float | None = None
        for time, role, phase in self.resumes:
            if role == "emitter" and phase == "sent":
                pending = time
            elif role == "consumer" and pending is not None:
                latencies.append(max(time - pending, 0.0))
                pending = None
        return latencies

    # -- the report -------------------------------------------------------

    def report(self, flows: Sequence[str] | None = None,
               spans: bool = False) -> list[Section]:
        """packets, assistance, coverage, metrics.  ``flows`` restricts
        the connection rows and charts; ``spans`` adds an example span
        tree to the packets section."""
        series = series_rows(self.metrics)
        return [self._packets(flows if flows else self.flows, spans),
                self._assistance(), self._coverage(),
                Section("metrics", [Table("", ("series", "value"), series)]
                        if series else ["(no metrics recorded)"])]

    def _packets(self, flows: Sequence[str], with_tree: bool) -> Section:
        def sent(flow: str, retx: bool) -> str:
            return str(self.count("transport_packets_sent_total", flow=flow,
                                  retx=retx))

        rows, charts = [], []
        for flow in flows:
            done = self.completed.get(flow)
            points = self.points.get(flow, [])
            rows.append((
                flow, sent(flow, False), sent(flow, True),
                str(self.count("transport_losses_total", flow=flow)),
                str(self.count("transport_pto_fired_total", flow=flow)),
                f"{done[0]:.3f}" if done else "no",
                f"{done[1]:,}" if done else "-", str(len(points))))
            srtt = [p.srtt * 1e3 for p in points if p.srtt is not None]
            if points:
                charts.append(Chart(f"{flow} cwnd bytes ({len(points)} pts)",
                                    [p.cwnd for p in points], 8))
            if srtt:
                charts.append(Chart(f"{flow} srtt ms ({len(srtt)} pts)",
                                    srtt, 6))
        items: list = [Table("connections", (
            "flow", "sends", "retransmits", "losses", "PTOs", "completed s",
            "bytes", "cwnd points"), rows), *charts]

        trees = self.spans
        complete = trees.complete_repairs()
        items.append(f"span trees: {len(trees.roots)} packets, "
                     f"{len(complete)} with the complete repair lifecycle")
        if trees.roots:
            items.append("attribution per packet: "
                         + _tally(trees.attribution_counts()))

        by_cause: dict[str, list[float | None]] = {}
        for cause, latency in trees.retransmissions():
            by_cause.setdefault(cause, []).append(latency)
        untagged = len(by_cause.pop(None, ()))
        in_trees = untagged + sum(len(found) for found in by_cause.values())
        caption = f"loss-recovery attribution ({in_trees} retransmits), " \
                  f"detection latency ms"
        if by_cause:
            order = [c for c in KNOWN_CAUSES if c in by_cause] \
                + sorted(set(by_cause) - set(KNOWN_CAUSES))
            stats = []
            for cause in order:
                known = [v for v in by_cause[cause] if v is not None]
                stats.append((cause, str(len(by_cause[cause])), *(
                    _fmt_ms(stat(known) if known else None) for stat in
                    (statistics.fmean, statistics.median, max))))
            items.append(Table(caption, ("cause", "count", "mean", "median",
                                         "max"), stats))
        else:
            items.append(f"{caption}: (none)")
        if untagged:
            items.append(f"{untagged} retransmits carried no cause tag "
                         f"(pre-tagging trace); the analysis does not guess")
        counted = self.count("transport_packets_sent_total", retx=True) \
            + self.count("sidecar_retransmissions_total")
        if counted > in_trees:
            items.append(f"{counted - in_trees} retransmits are in no span "
                         f"tree (events without a trace context)")
        if with_tree:
            for root in (complete or trees.repaired())[:1]:
                items += _span_tables(root, "")
        return Section("packets", items)

    def _assistance(self) -> Section:
        items: list = []
        statuses = self.by_label("quack_decodes_total", "status")
        if self.decodes:
            ok = statuses.pop("ok", 0)
            missing = [size for _time, _status, size in self.decodes]
            items += [
                f"quACK decode health: {len(self.decodes)} decodes, "
                f"{ok / len(self.decodes):.1%} ok "
                f"(failures: {_tally(statuses) or 'none'})",
                f"missing-set size: mean {statistics.fmean(missing):.2f}, "
                f"max {max(missing)}"]
            if len(missing) >= 2:
                items.append(Chart(f"missing per decode ({len(missing)} "
                                   f"decodes)", missing, 5))
        else:
            items.append("quACK decode health: (no quACK decodes in trace)")
        reasons = self.by_label("sidecar_resets_total", "reason")
        items.append(
            f"resets: {int(sum(reasons.values()))} "
            f"({self.false_positive_resets} false-positive"
            + (f"; {_tally(reasons)}" if reasons else "")
            + f"), wire errors: {self.count('sidecar_wire_errors_total')}")

        dwell = self.dwell()
        if dwell:
            total = sum(dwell.values()) or 1.0
            items.append("sidecar health ladder: " + ", ".join(
                f"{state} {seconds:.3f} s ({seconds / total:.0%})"
                for state, seconds in sorted(dwell.items(),
                                             key=lambda kv: -kv[1])))
            items.append(f"{len(self.transitions)} transitions, final state "
                         f"{self.transitions[-1][2]}")
            steps: dict[tuple[str, str], list[float]] = {}
            for time, old, new, reason in self.transitions:
                steps.setdefault((f"{old} -> {new}", reason or "(none)"),
                                 []).append(time)
            items.append(Table("why the ladder moved", (
                "transition", "reason", "count", "first s", "last s"), [
                (step, reason, str(len(times)), f"{times[0]:.3f}",
                 f"{times[-1]:.3f}")
                for (step, reason), times in steps.items()]))
        else:
            items.append("sidecar health ladder: (no health transitions; "
                         "ladder stayed put)")

        violations = self.by_label("sidecar_violations_total", "kind")
        if violations:
            items.append(f"{int(sum(violations.values()))} plausibility "
                         f"violations ({_tally(violations)})")
        regressions = self.count("sidecar_count_regressions_total")
        if regressions:
            items.append(f"{regressions} count regressions")
        items += [f"QUARANTINED at {time:.3f} s (trigger: {kind})"
                  for time, kind in self.quarantines]
        phases = self.by_label("sidecar_resumes_total", "phase")
        if phases:
            latencies = self.resume_latencies()
            items.append(
                f"resume handshakes: {_tally(phases)}"
                + (f", verdict latency mean "
                   f"{_fmt_ms(statistics.fmean(latencies))} ms"
                   if latencies else ""))
        checkpoints = self.count("sidecar_checkpoints_total")
        if checkpoints:
            items.append(f"{checkpoints} checkpoints "
                         f"({self.checkpoint_bytes_last} bytes last)")
        if self.gap_reconciled:
            items.append(f"{self.gap_reconciled} checkpoint-gap packets "
                         f"reconciled without loss signals")
        return Section("assistance", items)

    def _coverage(self) -> Section:
        span = (f", t={self.start:.3f}..{self.end:.3f} s"
                if self.events else " -- nothing to analyze")
        items = [f"{self.events} events ({self.malformed} malformed lines "
                 f"skipped){span}"]
        if self.components:
            items.append(f"events by component: {_tally(self.components)}")
        if self.truncated:
            items.append("WARNING: trace is truncated (lowest packet number "
                         "> 0); derived numbers undercount the start of the "
                         "run")
        if self.unreadable:
            items.append(f"{self.unreadable} events lacked a field their "
                         f"type declares; the counts above miss them")
        roots = self.spans.roots
        complete = sum(1 for root in roots if root.complete)
        reasoned = sum(1 for *_step, reason in self.transitions if reason)
        items += [
            f"packets with a complete causal tree: {complete} of "
            f"{len(roots)}",
            f"health transitions with a recorded reason: {reasoned} of "
            f"{len(self.transitions)}"]
        return Section("coverage", items)


def analyze(trace: "ParsedTrace | Iterable[object]") -> TraceAnalysis:
    """Run the pass over a :class:`ParsedTrace` (from :func:`load_trace`
    / :func:`parse_lines`) or any iterable of events or JSONL lines."""
    return TraceAnalysis(trace if isinstance(trace, ParsedTrace)
                         else parse_lines(trace))


def _span_tables(span: PacketSpan, lead: str) -> list[Table]:
    """One span tree as tables: a datagram's stages, then each
    retransmission of it."""
    rows, previous = [], None
    for entry in span.stages:
        rows.append((
            entry.stage, f"{entry.time:.6f}",
            "" if previous is None
            else f"+{(entry.time - previous) * 1e3:.3f}",
            " ".join(f"{key}={value}" for key, value in entry.detail.items()
                     if value is not None)))
        previous = entry.time
    tables = [Table(f"{lead}ctx {span.ctx} flow={span.flow} "
                    f"[{span.attribution}]"
                    + ("" if span.monotonic else "  !! non-monotonic"),
                    ("stage", "t s", "+ms", "detail"), rows)]
    for child in span.children:
        tables += _span_tables(child, "retransmission: ")
    return tables
