"""Performance observability: profile snapshots, flamegraphs, and diffs.

This module is the export/analysis surface over the hierarchical
profiler (:mod:`repro.obs.profile`) and its sibling snapshots:

* :func:`profile_snapshot` freezes the global profiler's per-call-path
  aggregates into a schema-versioned JSON document (stamped with the
  git commit);
* :func:`render_folded` turns a snapshot into collapsed-stack
  ("folded") text -- one ``parent;child weight`` line per call path,
  weighted by **self time in microseconds** -- the input format of every
  flamegraph renderer (``flamegraph.pl``, speedscope, inferno);
* :func:`diff_snapshots` is the engine behind ``repro diff <a> <b>``:
  it flattens two snapshots of the same kind (profile / telemetry /
  sweep aggregate) into scalar series, ranks the deltas by
  magnitude of relative change (deterministically -- ties break on
  name), and reports which entries moved past a ratio threshold.

Diff semantics (documented in DESIGN.md §14): the diff is a *symmetric
change detector*, not a regression gate -- a 3x improvement ranks as
high as a 3x regression, because both demand an explanation.  Entries
present on only one side rank first (their
relative change is unbounded) but never trip the threshold on their
own; entries where both sides are below ``min_abs`` are noise-floored
out.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ObservabilityError
from repro.obs.aggregate import flatten_telemetry, merge_snapshots

#: Version stamp on profile snapshot documents.
PROFILE_SCHEMA = 1

#: Default ratio past which a diff entry counts as "moved" (generous:
#: profile snapshots hold wall-clock span times).
DEFAULT_DIFF_THRESHOLD = 2.0

#: Ignore entries where both sides sit below this absolute value: a
#: span that went from 3ns to 9ns is noise, not a 3x movement.
DEFAULT_MIN_ABS = 1e-9


# -- profile snapshots --------------------------------------------------------

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


def profile_snapshot(profiler=None, *, scenario: str = "",
                     seed: int | None = None,
                     git_rev: str | None = "__detect__",
                     flows: Mapping | None = None) -> dict:
    """Freeze a profiler's per-path aggregates into a JSON document.

    ``profiler`` defaults to the global ``repro.obs.PROFILER``.  The
    document carries one record per call path, sorted by path, so two
    snapshots of the same run are byte-identical.
    """
    if profiler is None:
        from repro import obs

        profiler = obs.PROFILER
    if git_rev == "__detect__":
        git_rev = git_revision()
    spans = [stat.to_dict()
             for _path, stat in sorted(profiler.path_stats().items())]
    doc: dict = {
        "kind": "profile",
        "schema": PROFILE_SCHEMA,
        "scenario": scenario,
        "git_rev": git_rev,
        "spans": spans,
    }
    if seed is not None:
        doc["seed"] = seed
    if flows:
        doc["flows"] = dict(flows)
    return doc


def render_folded(snapshot: Mapping) -> str:
    """Collapsed-stack text: ``a;b;c <self-time-microseconds>`` lines.

    Weights are integer self-time microseconds (flamegraph renderers
    want integers); zero-weight paths are omitted.  Lines are sorted,
    so the output is deterministic for a deterministic profile.
    """
    lines = []
    for span in snapshot.get("spans", ()):
        weight = int(round(float(span.get("self_s", 0.0)) * 1e6))
        if weight > 0:
            lines.append(f"{span['path']} {weight}")
    return "\n".join(sorted(lines))


def format_profile(snapshot: Mapping, top: int = 20) -> str:
    """Terminal table of the heaviest call paths, by self time."""
    spans = sorted(snapshot.get("spans", ()),
                   key=lambda s: (-float(s.get("self_s", 0.0)), s["path"]))
    header = (f"profile: {snapshot.get('scenario') or '?'}"
              + (f" (commit {snapshot['git_rev']})"
                 if snapshot.get("git_rev") else ""))
    lines = [header,
             f"{'self ms':>10s} {'cum ms':>10s} {'calls':>8s}"
             f" {'alloc':>10s}  call path"]
    for span in spans[:top]:
        alloc = span.get("alloc_bytes") or 0
        alloc_text = f"{alloc:+,d}B" if alloc else "-"
        lines.append(
            f"{span['self_s'] * 1e3:>10.3f} {span['cum_s'] * 1e3:>10.3f} "
            f"{span['calls']:>8d} {alloc_text:>10s}  {span['path']}")
    if len(spans) > top:
        lines.append(f"... {len(spans) - top} more path(s)")
    if not spans:
        lines.append("(no spans recorded)")
    flows = snapshot.get("flows", {}).get("flows") \
        if isinstance(snapshot.get("flows"), Mapping) else None
    if flows:
        lines.append("")
        lines.append(f"{'flow':<24s} {'observed':>9s} {'frames':>7s} "
                     f"{'emitted B':>10s} {'bank B':>7s}")
        for flow in sorted(flows):
            acct = flows[flow]
            lines.append(f"{flow:<24s} {acct['observed']:>9d} "
                         f"{acct['frames_emitted']:>7d} "
                         f"{acct['bytes_emitted']:>10d} "
                         f"{acct['bank_bytes']:>7d}")
    return "\n".join(lines)


def write_profile(snapshot: Mapping, path: str) -> str:
    """Persist a profile snapshot as JSON; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_folded(snapshot: Mapping, path: str) -> str:
    """Persist the collapsed-stack form; returns the path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        text = render_folded(snapshot)
        handle.write(text + ("\n" if text else ""))
    return path


def load_profile(path: str) -> dict:
    """Read one profile snapshot file back."""
    doc = _load_json(path)
    if doc.get("kind") != "profile":
        raise ObservabilityError(f"{path}: not a profile snapshot "
                                 f"(kind={doc.get('kind')!r})")
    schema = doc.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ObservabilityError(
            f"{path}: profile schema {schema!r} not supported "
            f"(this build reads {PROFILE_SCHEMA})")
    return doc


# -- the diff engine ----------------------------------------------------------

@dataclass(frozen=True)
class DiffEntry:
    """One series' movement between two snapshots."""

    name: str
    baseline: float | None
    current: float | None
    #: ``current / baseline`` (None when undefined: a zero or missing side).
    ratio: float | None
    #: ``abs(log(ratio))`` -- the ranking key; ``inf`` for one-sided entries.
    severity: float
    #: True when the movement crossed the ratio threshold.
    exceeded: bool
    note: str = ""


@dataclass(frozen=True)
class DiffReport:
    """The ranked outcome of diffing two snapshots."""

    kind: str
    baseline_label: str
    current_label: str
    baseline_rev: str | None
    current_rev: str | None
    entries: tuple[DiffEntry, ...]

    @property
    def exceeded(self) -> tuple[DiffEntry, ...]:
        return tuple(entry for entry in self.entries if entry.exceeded)

    @property
    def ok(self) -> bool:
        return not self.exceeded


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ObservabilityError(f"{path} must hold a JSON object")
    return doc


def classify_snapshot(doc: Mapping) -> str:
    """Which snapshot family a loaded JSON document belongs to.

    Recognizes ``profile`` (this module), ``telemetry``
    (:mod:`repro.obs.aggregate`), and ``sweep-aggregate`` artifacts
    carrying a telemetry block.
    """
    kind = doc.get("kind")
    if kind == "profile":
        return "profile"
    if kind in ("telemetry", "sweep-aggregate"):
        return "telemetry"
    raise ObservabilityError(
        "unrecognized snapshot: expected a profile, telemetry, or sweep "
        "aggregate document")


def flatten_snapshot(doc: Mapping) -> tuple[str, dict[str, float],
                                            str | None]:
    """``(kind, {series name: value}, git_rev)`` for any snapshot kind.

    * profile snapshots flatten each call path to its **self time**
      (seconds) plus a ``calls:`` series per path;
    * telemetry snapshots (and sweep aggregates carrying one) flatten
      through :func:`repro.obs.aggregate.flatten_telemetry`.
    """
    kind = classify_snapshot(doc)
    if kind == "profile":
        flat = {}
        for span in doc.get("spans", ()):
            path = str(span.get("path", ""))
            if not path:
                continue
            flat[path] = float(span.get("self_s", 0.0))
            flat[f"calls:{path}"] = float(span.get("calls", 0))
        rev = doc.get("git_rev")
        return kind, flat, rev if isinstance(rev, str) else None
    # telemetry (possibly wrapped in a sweep aggregate)
    telemetry = doc
    if doc.get("kind") == "sweep-aggregate":
        telemetry = doc.get("telemetry") or {}
        if not telemetry:
            raise ObservabilityError(
                "sweep aggregate carries no telemetry block "
                "(re-run the sweep with --telemetry)")
    return "telemetry", flatten_telemetry(merge_snapshots([telemetry])), \
        None


def diff_flat(baseline: Mapping[str, float], current: Mapping[str, float],
              threshold: float = DEFAULT_DIFF_THRESHOLD,
              min_abs: float = DEFAULT_MIN_ABS) -> list[DiffEntry]:
    """Rank every series' movement; deterministic for deterministic input.

    Sorted by severity (``abs(log(ratio))``) descending, ties broken by
    name, one-sided entries first.  ``exceeded`` is set when the ratio
    crossed ``threshold`` in either direction; one-sided and
    noise-floored entries never exceed.
    """
    if threshold <= 1.0:
        raise ObservabilityError(
            f"diff threshold must be > 1.0 (a ratio), got {threshold}")
    entries: list[DiffEntry] = []
    for name in set(baseline) | set(current):
        b = baseline.get(name)
        c = current.get(name)
        if b is None:
            entries.append(DiffEntry(name=name, baseline=None, current=c,
                                     ratio=None, severity=math.inf,
                                     exceeded=False, note="only in current"))
            continue
        if c is None:
            entries.append(DiffEntry(name=name, baseline=b, current=None,
                                     ratio=None, severity=math.inf,
                                     exceeded=False,
                                     note="only in baseline"))
            continue
        if abs(b) < min_abs and abs(c) < min_abs:
            continue  # noise floor: both sides negligible
        if b == 0.0 or c == 0.0 or (b < 0) != (c < 0):
            entries.append(DiffEntry(
                name=name, baseline=b, current=c, ratio=None,
                severity=math.inf, exceeded=True,
                note="moved across zero"))
            continue
        ratio = c / b
        severity = abs(math.log(abs(ratio)))
        exceeded = abs(ratio) > threshold or abs(ratio) < 1.0 / threshold
        entries.append(DiffEntry(name=name, baseline=b, current=c,
                                 ratio=ratio, severity=severity,
                                 exceeded=exceeded))
    entries.sort(key=lambda e: (-e.severity, e.name))
    return entries


def diff_snapshots(baseline_doc: Mapping, current_doc: Mapping,
                   threshold: float = DEFAULT_DIFF_THRESHOLD,
                   min_abs: float = DEFAULT_MIN_ABS,
                   baseline_label: str = "baseline",
                   current_label: str = "current") -> DiffReport:
    """Diff two loaded snapshots of the same kind."""
    kind_b = classify_snapshot(baseline_doc)
    kind_c = classify_snapshot(current_doc)
    if kind_b != kind_c:
        raise ObservabilityError(
            f"cannot diff a {kind_b} snapshot against a {kind_c} snapshot")
    _, flat_b, rev_b = flatten_snapshot(baseline_doc)
    _, flat_c, rev_c = flatten_snapshot(current_doc)
    entries = diff_flat(flat_b, flat_c, threshold=threshold,
                        min_abs=min_abs)
    return DiffReport(kind=kind_b, baseline_label=baseline_label,
                      current_label=current_label, baseline_rev=rev_b,
                      current_rev=rev_c, entries=tuple(entries))


def diff_files(baseline_path: str, current_path: str,
               threshold: float = DEFAULT_DIFF_THRESHOLD,
               min_abs: float = DEFAULT_MIN_ABS) -> DiffReport:
    """Diff two snapshot files (the ``repro diff`` entry point)."""
    return diff_snapshots(_load_json(baseline_path),
                          _load_json(current_path),
                          threshold=threshold, min_abs=min_abs,
                          baseline_label=baseline_path,
                          current_label=current_path)


def _fmt_value(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,d}"
    return f"{value:.6g}"


def format_diff(report: DiffReport,
                threshold: float = DEFAULT_DIFF_THRESHOLD,
                top: int = 20) -> str:
    """Human-readable ranked diff for the terminal."""
    def side(label: str, rev: str | None) -> str:
        return f"{label} (commit {rev})" if rev else label

    lines = [f"diff [{report.kind}]: "
             f"{side(report.baseline_label, report.baseline_rev)} -> "
             f"{side(report.current_label, report.current_rev)}"]
    shown = report.entries[:top]
    for entry in shown:
        ratio = f"{entry.ratio:.2f}x" if entry.ratio is not None else "-"
        marker = "MOVED" if entry.exceeded else "ok"
        note = f"  [{entry.note}]" if entry.note else ""
        lines.append(f"  {marker:<5s} {entry.name:<44s} "
                     f"{_fmt_value(entry.baseline):>14s} -> "
                     f"{_fmt_value(entry.current):>14s} ({ratio}){note}")
    hidden = len(report.entries) - len(shown)
    if hidden > 0:
        lines.append(f"  ... {hidden} more series")
    if not report.entries:
        lines.append("  (no comparable series)")
    lines.append("")
    moved = len(report.exceeded)
    if moved:
        lines.append(f"FAIL: {moved} series moved past the "
                     f"{threshold:g}x threshold")
    else:
        lines.append(f"OK: no series moved past the {threshold:g}x "
                     f"threshold")
    return "\n".join(lines)
