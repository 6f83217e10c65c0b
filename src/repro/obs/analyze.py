"""Trace analytics: turn a raw trace into derived answers.

:mod:`repro.obs.trace` records *what happened*; this module says *what it
means*.  It consumes a trace -- in-memory :class:`~repro.obs.trace
.TraceEvent` objects or a JSONL export -- and derives the four artifacts
the reproduction's evaluation keeps asking for by hand:

* **per-connection timelines** -- cwnd / bytes-in-flight / sRTT over
  virtual time, one :class:`ConnectionTimeline` per flow, with send,
  retransmit, loss, PTO, and completion bookkeeping;
* **loss-recovery attribution** -- every ``transport.retransmit`` and
  ``sidecar.retransmit`` credited to the path that detected the loss
  (``quack`` decode, e2e ``ack`` evidence, ``pto`` backstop) with the
  virtual-time detection latency of each path aggregated per cause;
* **quACK decode health** -- success rate, the missing-set-size series,
  false-positive resets (a reset issued while decodes were succeeding),
  and checksum-rejected frames;
* **sidecar health-ladder dwell times** -- how long the session sat on
  each rung of HEALTHY / DEGRADED / E2E_ONLY / RECOVERING.

Parsing is deliberately forgiving where the schema validator is strict:
an analysis of a partially corrupt or foreign trace should *skip and
count* malformed lines, never crash (``python -m repro analyze`` prints
the skipped-line count).  Ring truncation is flagged: a trace whose
lowest transmitted packet number is not 0 lost its beginning.

CLI::

    python -m repro trace cc-division --jsonl trace.jsonl
    python -m repro analyze trace.jsonl
    python -m repro analyze trace.jsonl --markdown --flow flow0
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trace import TraceEvent, component_tally, format_component_tally

#: Decode statuses that count as a successful quACK decode.
_DECODE_OK = ("ok",)

#: Causes the attribution table always lists, in narrative order.
KNOWN_CAUSES = ("quack", "ack", "pto")


# -- parsing ------------------------------------------------------------------

@dataclass
class ParsedTrace:
    """Decoded trace records plus the malformed-line count."""

    records: list[dict]
    malformed: int = 0
    source: str = ""


def parse_lines(lines: Iterable[str], source: str = "") -> ParsedTrace:
    """Decode JSONL lines, skipping (and counting) anything malformed.

    A line is malformed if it is not valid JSON, not an object, or lacks
    a string ``type`` / numeric ``t``.  Unknown event *types* are kept --
    consumers ignore what they do not know -- so traces from newer
    schema versions still analyze.
    """
    records: list[dict] = []
    malformed = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            malformed += 1
            continue
        stamp = record.get("t") if isinstance(record, dict) else None
        if (not isinstance(record, dict)
                or not isinstance(record.get("type"), str)
                or isinstance(stamp, bool)
                or not isinstance(stamp, (int, float))):
            malformed += 1
            continue
        records.append(record)
    return ParsedTrace(records=records, malformed=malformed, source=source)


def load_trace(path: str) -> ParsedTrace:
    """Read and parse one JSONL trace file (malformed lines tolerated)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_lines(handle, source=path)


def _as_records(events: Iterable["TraceEvent | dict"]) -> list[dict]:
    return [event.to_dict() if isinstance(event, TraceEvent) else dict(event)
            for event in events]


# -- derived artifacts --------------------------------------------------------

@dataclass(frozen=True)
class TimelinePoint:
    """One instant of a connection's state (from ``transport.cwnd``)."""

    time: float
    cwnd: float
    in_flight: float
    srtt: float | None


@dataclass
class ConnectionTimeline:
    """Everything the trace says about one flow, in time order."""

    flow: str
    points: list[TimelinePoint] = field(default_factory=list)
    sends: int = 0
    retransmits: int = 0
    losses: int = 0
    ptos: int = 0
    min_pn: int | None = None
    first_time: float | None = None
    last_time: float | None = None
    completed_at: float | None = None
    completed_bytes: int | None = None

    def _touch(self, time: float) -> None:
        if self.first_time is None or time < self.first_time:
            self.first_time = time
        if self.last_time is None or time > self.last_time:
            self.last_time = time

    def series(self, attr: str) -> tuple[list[float], list[float]]:
        """``(times, values)`` for ``cwnd`` / ``in_flight`` / ``srtt``."""
        times, values = [], []
        for point in self.points:
            value = getattr(point, attr)
            if value is None:
                continue
            times.append(point.time)
            values.append(float(value))
        return times, values


@dataclass(frozen=True)
class RetransmitRecord:
    """One attributed retransmission."""

    time: float
    flow: str
    cause: str
    latency: float | None
    layer: str  # "transport" or "sidecar"


@dataclass
class CauseStats:
    """Detection-latency statistics for one loss-recovery path."""

    cause: str
    count: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float | None:
        return statistics.fmean(self.latencies) if self.latencies else None

    @property
    def median_latency(self) -> float | None:
        return statistics.median(self.latencies) if self.latencies else None

    @property
    def max_latency(self) -> float | None:
        return max(self.latencies) if self.latencies else None


@dataclass
class LossAttribution:
    """Every retransmit in the trace, credited to its detection path."""

    records: list[RetransmitRecord] = field(default_factory=list)
    #: Retransmits whose event carried no ``cause`` tag (pre-tagging
    #: traces); the analysis refuses to guess.
    unattributed: int = 0

    def by_cause(self) -> dict[str, CauseStats]:
        stats: dict[str, CauseStats] = {}
        for record in self.records:
            entry = stats.setdefault(record.cause, CauseStats(record.cause))
            entry.count += 1
            if record.latency is not None:
                entry.latencies.append(record.latency)
        return stats

    @property
    def total(self) -> int:
        return len(self.records) + self.unattributed


@dataclass
class DecodeHealth:
    """The quACK decode series and what it says about the channel."""

    times: list[float] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    missing: list[int] = field(default_factory=list)
    resets: int = 0
    reset_reasons: dict[str, int] = field(default_factory=dict)
    #: Resets issued while the latest decode had succeeded -- the session
    #: restarted without decode evidence of a broken channel.
    false_positive_resets: int = 0
    wire_errors: int = 0

    @property
    def decodes(self) -> int:
        return len(self.statuses)

    @property
    def successes(self) -> int:
        return sum(1 for status in self.statuses if status in _DECODE_OK)

    @property
    def success_rate(self) -> float | None:
        return self.successes / self.decodes if self.decodes else None

    def failures(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for status in self.statuses:
            if status not in _DECODE_OK:
                tally[status] = tally.get(status, 0) + 1
        return tally

    @property
    def max_missing(self) -> int | None:
        return max(self.missing) if self.missing else None

    @property
    def mean_missing(self) -> float | None:
        return statistics.fmean(self.missing) if self.missing else None


@dataclass
class DefenseReport:
    """What the plausibility defense saw: violations, quarantine, resume.

    Populated from the ``sidecar.violation`` / ``sidecar.quarantine`` /
    ``sidecar.count_regression`` / ``sidecar.resume`` /
    ``sidecar.checkpoint`` / ``sidecar.gap_reconciled`` events; all
    zeros when the trace predates the defense (or it was unarmed).
    """

    violations: dict[str, int] = field(default_factory=dict)
    quarantines: list[tuple[float, str]] = field(
        default_factory=list)  # (time, kind)
    count_regressions: int = 0
    resumes: dict[str, int] = field(default_factory=dict)  # phase -> count
    resume_events: list[tuple[float, str, str]] = field(
        default_factory=list)  # (time, role, phase)
    checkpoints: int = 0
    checkpoint_bytes_last: int | None = None
    gap_reconciled: int = 0

    @property
    def active(self) -> bool:
        return bool(self.violations or self.quarantines or self.resumes
                    or self.checkpoints or self.count_regressions
                    or self.gap_reconciled)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def quarantined_at(self) -> float | None:
        return self.quarantines[0][0] if self.quarantines else None

    def resume_latencies(self) -> list[float]:
        """Announce-to-verdict time of each resume handshake.

        Pairs every emitter ``sent`` with the next consumer
        ``accepted``/``rejected`` after it -- the restart-to-reassistance
        delay the checkpoint/restore path is supposed to keep under one
        round trip.
        """
        latencies: list[float] = []
        pending: float | None = None
        for time, role, phase in self.resume_events:
            if role == "emitter" and phase == "sent":
                pending = time
            elif role == "consumer" and pending is not None:
                latencies.append(max(time - pending, 0.0))
                pending = None
        return latencies


@dataclass
class HealthDwell:
    """Time spent on each rung of the sidecar degradation ladder."""

    transitions: list[tuple[float, str, str, str]] = field(
        default_factory=list)  # (time, old, new, reason)
    dwell_s: dict[str, float] = field(default_factory=dict)
    final_state: str | None = None

    @property
    def total_s(self) -> float:
        return sum(self.dwell_s.values())


@dataclass
class TraceAnalysis:
    """The full derived view of one trace."""

    source: str
    events: int
    malformed: int
    components: dict[str, int]
    start: float | None
    end: float | None
    connections: dict[str, ConnectionTimeline]
    attribution: LossAttribution
    decode: DecodeHealth
    health: HealthDwell
    defense: DefenseReport
    #: True when the trace demonstrably lost its beginning (lowest
    #: transmitted pn > 0 for some flow, or an explicit dropped count).
    truncated: bool
    dropped_events: int = 0

    @property
    def duration(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    # Rendering lives below as free functions; keep the dataclass thin.
    def render_text(self, width: int = 72,
                    flows: Sequence[str] | None = None) -> str:
        return render_text(self, width=width, flows=flows)

    def render_markdown(self, flows: Sequence[str] | None = None) -> str:
        return render_markdown(self, flows=flows)


# -- the engine ---------------------------------------------------------------

def analyze(trace: "ParsedTrace | Iterable[TraceEvent | dict]",
            dropped_events: int = 0) -> TraceAnalysis:
    """Derive timelines, attribution, decode health, and dwell times.

    ``trace`` is a :class:`ParsedTrace` (from :func:`load_trace` /
    :func:`parse_lines`) or any iterable of events.  ``dropped_events``
    lets a live caller (who still holds the :class:`RingSink`) pass the
    authoritative truncation count; JSONL files do not carry it, so for
    them truncation is inferred from packet numbers.
    """
    if isinstance(trace, ParsedTrace):
        records, malformed, source = trace.records, trace.malformed, \
            trace.source
    else:
        records, malformed, source = _as_records(trace), 0, ""
    records = sorted(records, key=lambda r: r["t"])

    connections: dict[str, ConnectionTimeline] = {}
    attribution = LossAttribution()
    decode = DecodeHealth()
    defense = DefenseReport()
    transitions: list[tuple[float, str, str, str]] = []
    last_decode_ok: bool | None = None

    def conn(flow: object) -> ConnectionTimeline:
        name = str(flow)
        timeline = connections.get(name)
        if timeline is None:
            timeline = connections[name] = ConnectionTimeline(name)
        return timeline

    for record in records:
        etype = record["type"]
        time = record["t"]
        if etype == "transport.send" or etype == "transport.retransmit":
            timeline = conn(record.get("flow", "?"))
            timeline._touch(time)
            pn = record.get("pn")
            if isinstance(pn, (int, float)) and not isinstance(pn, bool):
                if timeline.min_pn is None or pn < timeline.min_pn:
                    timeline.min_pn = int(pn)
            if etype == "transport.send":
                timeline.sends += 1
            else:
                timeline.retransmits += 1
                cause = record.get("cause")
                latency = record.get("latency")
                if isinstance(cause, str):
                    attribution.records.append(RetransmitRecord(
                        time=time, flow=timeline.flow, cause=cause,
                        latency=latency
                        if isinstance(latency, (int, float))
                        and not isinstance(latency, bool) else None,
                        layer="transport"))
                else:
                    attribution.unattributed += 1
        elif etype == "transport.cwnd":
            timeline = conn(record.get("flow", "?"))
            timeline._touch(time)
            srtt = record.get("srtt")
            timeline.points.append(TimelinePoint(
                time=time,
                cwnd=float(record.get("cwnd", 0) or 0),
                in_flight=float(record.get("in_flight", 0) or 0),
                srtt=float(srtt)
                if isinstance(srtt, (int, float))
                and not isinstance(srtt, bool) else None))
        elif etype == "transport.loss":
            timeline = conn(record.get("flow", "?"))
            timeline._touch(time)
            timeline.losses += 1
        elif etype == "transport.pto":
            timeline = conn(record.get("flow", "?"))
            timeline._touch(time)
            timeline.ptos += 1
        elif etype == "transport.complete":
            timeline = conn(record.get("flow", "?"))
            timeline._touch(time)
            timeline.completed_at = time
            size = record.get("bytes")
            if isinstance(size, (int, float)) and not isinstance(size, bool):
                timeline.completed_bytes = int(size)
        elif etype == "sidecar.retransmit":
            cause = record.get("cause")
            latency = record.get("latency")
            if isinstance(cause, str):
                attribution.records.append(RetransmitRecord(
                    time=time, flow=str(record.get("flow", "?")),
                    cause=cause,
                    latency=latency
                    if isinstance(latency, (int, float))
                    and not isinstance(latency, bool) else None,
                    layer="sidecar"))
            else:
                attribution.unattributed += 1
        elif etype == "quack.decode":
            status = str(record.get("status", "?"))
            missing = record.get("missing")
            decode.times.append(time)
            decode.statuses.append(status)
            decode.missing.append(
                int(missing) if isinstance(missing, (int, float))
                and not isinstance(missing, bool) else 0)
            last_decode_ok = status in _DECODE_OK
        elif etype == "sidecar.reset":
            decode.resets += 1
            reason = str(record.get("reason", "?"))
            decode.reset_reasons[reason] = \
                decode.reset_reasons.get(reason, 0) + 1
            if last_decode_ok:
                decode.false_positive_resets += 1
        elif etype == "sidecar.wire_error":
            decode.wire_errors += 1
        elif etype == "sidecar.health":
            transitions.append((time, str(record.get("old", "?")),
                                str(record.get("new", "?")),
                                str(record.get("reason", ""))))
        elif etype == "sidecar.violation":
            kind = str(record.get("kind", "?"))
            defense.violations[kind] = defense.violations.get(kind, 0) + 1
        elif etype == "sidecar.quarantine":
            defense.quarantines.append((time, str(record.get("kind", "?"))))
        elif etype == "sidecar.count_regression":
            defense.count_regressions += 1
        elif etype == "sidecar.resume":
            role = str(record.get("role", "?"))
            phase = str(record.get("phase", "?"))
            defense.resumes[phase] = defense.resumes.get(phase, 0) + 1
            defense.resume_events.append((time, role, phase))
        elif etype == "sidecar.checkpoint":
            defense.checkpoints += 1
            size = record.get("bytes")
            if isinstance(size, (int, float)) and not isinstance(size, bool):
                defense.checkpoint_bytes_last = int(size)
        elif etype == "sidecar.gap_reconciled":
            packets = record.get("packets")
            if isinstance(packets, (int, float)) \
                    and not isinstance(packets, bool):
                defense.gap_reconciled += int(packets)

    start = records[0]["t"] if records else None
    end = records[-1]["t"] if records else None
    health = _dwell_times(transitions, start, end)
    truncated = dropped_events > 0 or any(
        timeline.min_pn is not None and timeline.min_pn > 0
        for timeline in connections.values())
    return TraceAnalysis(
        source=source,
        events=len(records),
        malformed=malformed,
        components=component_tally(records),
        start=start,
        end=end,
        connections=connections,
        attribution=attribution,
        decode=decode,
        health=health,
        defense=defense,
        truncated=truncated,
        dropped_events=dropped_events,
    )


def _dwell_times(transitions: list[tuple[float, str, str, str]],
                 start: float | None, end: float | None) -> HealthDwell:
    """Per-state dwell from the transition log.

    The state before the first transition is that transition's ``old``;
    the interval before the first trace event and after the last is not
    counted (the trace only witnesses what it spans).
    """
    health = HealthDwell(transitions=list(transitions))
    if start is None or end is None:
        return health
    if not transitions:
        return health
    cursor = start
    state = transitions[0][1]
    for time, _old, new, _reason in transitions:
        span = max(time - cursor, 0.0)
        health.dwell_s[state] = health.dwell_s.get(state, 0.0) + span
        cursor = max(time, cursor)
        state = new
    health.dwell_s[state] = health.dwell_s.get(state, 0.0) \
        + max(end - cursor, 0.0)
    health.final_state = state
    return health


# -- rendering ----------------------------------------------------------------

def _fmt_ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.2f}"


def _attribution_rows(analysis: TraceAnalysis) -> list[tuple[str, ...]]:
    """(cause, count, mean/median/max latency ms) rows, known causes first."""
    stats = analysis.attribution.by_cause()
    order = [c for c in KNOWN_CAUSES if c in stats] \
        + sorted(set(stats) - set(KNOWN_CAUSES))
    rows = []
    for cause in order:
        entry = stats[cause]
        rows.append((cause, str(entry.count), _fmt_ms(entry.mean_latency),
                     _fmt_ms(entry.median_latency),
                     _fmt_ms(entry.max_latency)))
    return rows


def _connection_summary(timeline: ConnectionTimeline) -> str:
    completed = (f"completed at {timeline.completed_at:.3f} s"
                 + (f" ({timeline.completed_bytes:,} bytes)"
                    if timeline.completed_bytes is not None else "")
                 if timeline.completed_at is not None else "did not complete")
    return (f"{timeline.sends} sends + {timeline.retransmits} retransmits, "
            f"{timeline.losses} losses, {timeline.ptos} PTOs, {completed}")


def _select_flows(analysis: TraceAnalysis,
                  flows: Sequence[str] | None) -> list[ConnectionTimeline]:
    if flows is None:
        return [analysis.connections[name]
                for name in sorted(analysis.connections)]
    return [analysis.connections[name] for name in flows
            if name in analysis.connections]


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
    # Bucket into `width` columns.
    columns: list[float] = []
    for i in range(min(width, len(series))):
        lo = i * len(series) // min(width, len(series))
        hi = max(lo + 1, (i + 1) * len(series) // min(width, len(series)))
        bucket = series[lo:hi]
        columns.append(sum(bucket) / len(bucket))
    top = max(columns)
    bottom = min(columns)
    span = top - bottom or 1.0
    rows: list[str] = []
    for row in range(height, 0, -1):
        # The bottom row's cutoff equals the minimum, so every column
        # paints at least one cell (flat series render as a floor line).
        cutoff = bottom + span * (row - 1) / height
        line = "".join("#" if value >= cutoff else " " for value in columns)
        rows.append(line)
    header = f"{label}  [min {bottom:.3g}, max {top:.3g}]" if label else \
        f"[min {bottom:.3g}, max {top:.3g}]"
    return "\n".join([header] + rows)


def render_text(analysis: TraceAnalysis, width: int = 72,
                flows: Sequence[str] | None = None) -> str:
    """The terminal report: summaries plus block-character charts."""
    lines = [f"trace analysis: {analysis.source or '(in-memory events)'}"]
    span = (f", t={analysis.start:.3f}..{analysis.end:.3f} s"
            if analysis.events else "")
    lines.append(f"{analysis.events} events "
                 f"({analysis.malformed} malformed lines skipped){span}")
    if analysis.components:
        lines.append("events by component: "
                     + format_component_tally(analysis.components))
    if analysis.truncated:
        detail = (f"{analysis.dropped_events} events dropped by the ring"
                  if analysis.dropped_events
                  else "lowest packet number > 0")
        lines.append(f"WARNING: trace is truncated ({detail}); "
                     f"derived numbers undercount the start of the run")
    if not analysis.events:
        lines.append("(nothing to analyze)")
        return "\n".join(lines)

    for timeline in _select_flows(analysis, flows):
        lines.append("")
        lines.append(f"connection {timeline.flow}: "
                     + _connection_summary(timeline))
        _times, cwnd = timeline.series("cwnd")
        if cwnd:
            lines.append(ascii_chart(cwnd, width=width, height=8,
                                     label=f"  cwnd bytes ({len(cwnd)} pts)"))
        _times, srtt = timeline.series("srtt")
        if srtt:
            lines.append(ascii_chart([v * 1e3 for v in srtt], width=width,
                                     height=6,
                                     label=f"  srtt ms ({len(srtt)} pts)"))

    lines.append("")
    lines.append("loss-recovery attribution "
                 f"({analysis.attribution.total} retransmits):")
    rows = _attribution_rows(analysis)
    if rows:
        lines.append(f"  {'cause':<8s} {'count':>6s} "
                     f"{'mean':>9s} {'median':>9s} {'max':>9s}  (latency ms)")
        for cause, count, mean, median, peak in rows:
            lines.append(f"  {cause:<8s} {count:>6s} "
                         f"{mean:>9s} {median:>9s} {peak:>9s}")
    else:
        lines.append("  (no retransmissions)")
    if analysis.attribution.unattributed:
        lines.append(f"  {analysis.attribution.unattributed} retransmits "
                     f"carried no cause tag (pre-tagging trace)")

    decode = analysis.decode
    lines.append("")
    lines.append("quACK decode health:")
    if decode.decodes:
        rate = decode.success_rate or 0.0
        failures = ", ".join(f"{status}={count}"
                             for status, count in
                             sorted(decode.failures().items())) or "none"
        lines.append(f"  {decode.decodes} decodes, {rate:.1%} ok "
                     f"(failures: {failures})")
        lines.append(f"  missing-set size: mean "
                     f"{decode.mean_missing:.2f}, max {decode.max_missing}")
        if len(decode.missing) >= 2:
            lines.append(ascii_chart(
                [float(m) for m in decode.missing], width=width, height=5,
                label=f"  missing per decode ({decode.decodes} decodes)"))
    else:
        lines.append("  (no quACK decodes in trace)")
    lines.append(f"  resets: {decode.resets} "
                 f"({decode.false_positive_resets} false-positive), "
                 f"wire errors: {decode.wire_errors}")

    health = analysis.health
    lines.append("")
    lines.append("sidecar health ladder:")
    if health.dwell_s:
        total = health.total_s or 1.0
        parts = ", ".join(
            f"{state} {seconds:.3f} s ({seconds / total:.0%})"
            for state, seconds in sorted(health.dwell_s.items(),
                                         key=lambda kv: -kv[1]))
        lines.append(f"  {parts}")
        lines.append(f"  {len(health.transitions)} transitions, "
                     f"final state {health.final_state}")
    else:
        lines.append("  (no health transitions; ladder stayed put)")

    defense = analysis.defense
    if defense.active:
        lines.append("")
        lines.append("sidecar defense:")
        if defense.violations:
            parts = ", ".join(f"{kind}={count}" for kind, count
                              in sorted(defense.violations.items()))
            lines.append(f"  {defense.total_violations} plausibility "
                         f"violations ({parts})")
        if defense.count_regressions:
            lines.append(f"  {defense.count_regressions} count regressions")
        for time, kind in defense.quarantines:
            lines.append(f"  QUARANTINED at {time:.3f} s (trigger: {kind})")
        if defense.resumes:
            parts = ", ".join(f"{phase}={count}" for phase, count
                              in sorted(defense.resumes.items()))
            latencies = defense.resume_latencies()
            latency = (f", verdict latency mean "
                       f"{_fmt_ms(statistics.fmean(latencies))} ms"
                       if latencies else "")
            lines.append(f"  resume handshakes: {parts}{latency}")
        if defense.checkpoints:
            size = (f" ({defense.checkpoint_bytes_last} bytes last)"
                    if defense.checkpoint_bytes_last is not None else "")
            lines.append(f"  {defense.checkpoints} checkpoints{size}")
        if defense.gap_reconciled:
            lines.append(f"  {defense.gap_reconciled} checkpoint-gap packets "
                         f"reconciled without loss signals")
    return "\n".join(lines)


def render_markdown(analysis: TraceAnalysis,
                    flows: Sequence[str] | None = None) -> str:
    """The same analysis as a self-contained markdown document."""
    lines = [f"# Trace analysis — "
             f"`{analysis.source or '(in-memory events)'}`", ""]
    span = (f" spanning t={analysis.start:.3f}..{analysis.end:.3f} s"
            if analysis.events else "")
    lines.append(f"{analysis.events} events, {analysis.malformed} malformed "
                 f"lines skipped{span}.")
    if analysis.truncated:
        lines.append("")
        lines.append("> **Warning:** the trace is truncated; derived "
                     "numbers undercount the start of the run.")
    lines.append("")
    if analysis.components:
        lines.append(format_component_tally(analysis.components,
                                            markdown=True))
        lines.append("")

    lines.append("## Connections")
    lines.append("")
    lines.append("| flow | sends | retransmits | losses | PTOs | "
                 "completed | points |")
    lines.append("|---|---|---|---|---|---|---|")
    for timeline in _select_flows(analysis, flows):
        completed = (f"{timeline.completed_at:.3f} s"
                     if timeline.completed_at is not None else "no")
        lines.append(f"| {timeline.flow} | {timeline.sends} "
                     f"| {timeline.retransmits} | {timeline.losses} "
                     f"| {timeline.ptos} | {completed} "
                     f"| {len(timeline.points)} |")
    lines.append("")

    lines.append("## Loss-recovery attribution")
    lines.append("")
    lines.append("| cause | retransmits | mean latency (ms) "
                 "| median (ms) | max (ms) |")
    lines.append("|---|---|---|---|---|")
    for cause, count, mean, median, peak in _attribution_rows(analysis):
        lines.append(f"| {cause} | {count} | {mean} | {median} | {peak} |")
    if analysis.attribution.unattributed:
        lines.append(f"| (untagged) | {analysis.attribution.unattributed} "
                     f"| - | - | - |")
    lines.append("")

    decode = analysis.decode
    lines.append("## quACK decode health")
    lines.append("")
    if decode.decodes:
        failures = ", ".join(f"{status}={count}" for status, count in
                             sorted(decode.failures().items())) or "none"
        lines.append(f"* {decode.decodes} decodes, "
                     f"{(decode.success_rate or 0):.1%} ok "
                     f"(failures: {failures})")
        lines.append(f"* missing-set size: mean {decode.mean_missing:.2f}, "
                     f"max {decode.max_missing}")
    else:
        lines.append("* no quACK decodes in trace")
    lines.append(f"* resets: {decode.resets} "
                 f"({decode.false_positive_resets} false-positive); "
                 f"wire errors: {decode.wire_errors}")
    lines.append("")

    health = analysis.health
    lines.append("## Sidecar health ladder")
    lines.append("")
    if health.dwell_s:
        lines.append("| state | dwell (s) | share |")
        lines.append("|---|---|---|")
        total = health.total_s or 1.0
        for state, seconds in sorted(health.dwell_s.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"| {state} | {seconds:.3f} "
                         f"| {seconds / total:.0%} |")
        lines.append("")
        lines.append(f"{len(health.transitions)} transitions; final state "
                     f"`{health.final_state}`.")
    else:
        lines.append("No health transitions recorded.")

    defense = analysis.defense
    if defense.active:
        lines.append("")
        lines.append("## Sidecar defense")
        lines.append("")
        if defense.violations:
            lines.append("| violation kind | count |")
            lines.append("|---|---|")
            for kind, count in sorted(defense.violations.items()):
                lines.append(f"| {kind} | {count} |")
            lines.append("")
        bullets = []
        if defense.count_regressions:
            bullets.append(f"* {defense.count_regressions} count regressions")
        for time, kind in defense.quarantines:
            bullets.append(f"* quarantined at {time:.3f} s "
                           f"(trigger: `{kind}`)")
        if defense.resumes:
            parts = ", ".join(f"{phase}={count}" for phase, count
                              in sorted(defense.resumes.items()))
            latencies = defense.resume_latencies()
            latency = (f"; verdict latency mean "
                       f"{_fmt_ms(statistics.fmean(latencies))} ms"
                       if latencies else "")
            bullets.append(f"* resume handshakes: {parts}{latency}")
        if defense.checkpoints:
            bullets.append(f"* {defense.checkpoints} checkpoints taken")
        if defense.gap_reconciled:
            bullets.append(f"* {defense.gap_reconciled} checkpoint-gap "
                           f"packets reconciled without loss signals")
        lines.extend(bullets)
    return "\n".join(lines)
