"""Performance observability: profile snapshots, flamegraphs, and diffs.

This module is the export/analysis surface over the hierarchical
profiler (:mod:`repro.obs.profile`) and its sibling snapshots:

* :func:`profile_snapshot` freezes a profiler's per-call-path
  aggregates into a schema-versioned JSON document (stamped with the
  git commit); :func:`profile_items` lays one out for the **time**
  section of ``repro trace``'s report;
* :func:`render_folded` turns a snapshot into collapsed-stack
  ("folded") text -- one ``parent;child weight`` line per call path,
  weighted by **self time in microseconds** -- the input format of every
  flamegraph renderer (``flamegraph.pl``, speedscope, inferno);
* :func:`diff_snapshots` is the engine behind ``repro diff <a> <b>``:
  it flattens two snapshots of the same kind (profile / telemetry /
  sweep aggregate) into scalar series, ranks the deltas by
  magnitude of relative change (deterministically -- ties break on
  name), and reports which entries moved past a ratio threshold.

Diff semantics (DESIGN.md §8): the diff is a *symmetric
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
from repro.obs.aggregate import flatten_telemetry, load_json, telemetry_of
from repro.obs.analyze import Table
from repro.obs.metrics import fmt_value

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


def profile_snapshot(profiler, *, scenario: str = "",
                     seed: int | None = None,
                     git_rev: str | None = "__detect__",
                     flows: Mapping | None = None) -> dict:
    """Freeze a profiler's per-path aggregates into a JSON document.

    The document carries one record per call path, sorted by path, so two
    snapshots of the same run are byte-identical.
    """
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


def profile_items(snapshot: Mapping, root: str, top: int) -> list:
    """A profile snapshot as report items: the wall time and the share
    of it spent inside named spans (read off the ``root`` span: its self
    time is what no span beneath it covers), the ``top`` heaviest call
    paths by self time, and the per-flow middlebox ledger."""
    spans = sorted(snapshot.get("spans", ()),
                   key=lambda s: (-float(s.get("self_s", 0.0)), s["path"]))
    items: list = []
    wall = next((span for span in spans if span["path"] == root), None)
    if wall is not None and wall["cum_s"] > 0:
        items.append(
            f"wall clock: {wall['cum_s'] * 1e3:.1f} ms, "
            f"{1 - wall['self_s'] / wall['cum_s']:.1%} inside named spans"
            + (f" (commit {snapshot['git_rev']})"
               if snapshot.get("git_rev") else ""))
    if spans:
        items.append(Table(
            "call paths by self time"
            + (f" ({len(spans) - top} more path(s) not shown)"
               if len(spans) > top else ""),
            ("self ms", "cum ms", "calls", "alloc", "call path"),
            [(f"{span['self_s'] * 1e3:.3f}", f"{span['cum_s'] * 1e3:.3f}",
              str(span["calls"]),
              f"{span['alloc_bytes']:+,d}B" if span.get("alloc_bytes")
              else "-", span["path"]) for span in spans[:top]]))
    else:
        items.append("(no spans recorded)")
    flows = snapshot.get("flows", {}).get("flows") \
        if isinstance(snapshot.get("flows"), Mapping) else None
    if flows:
        items.append(Table(
            "middlebox ledger",
            ("flow", "observed", "frames", "emitted B", "bank B"),
            [(flow, *(str(flows[flow][key]) for key in (
                "observed", "frames_emitted", "bytes_emitted",
                "bank_bytes"))) for flow in sorted(flows)]))
    return items


def _write(path: str, text: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def write_profile(snapshot: Mapping, path: str) -> str:
    """Persist a profile snapshot as JSON; returns the path."""
    return _write(path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def write_folded(snapshot: Mapping, path: str) -> str:
    """Persist the collapsed-stack form; returns the path."""
    text = render_folded(snapshot)
    return _write(path, text + ("\n" if text else ""))


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


def flatten_snapshot(doc: Mapping) -> tuple[str, dict[str, float],
                                            str | None]:
    """``(kind, {series name: value}, git_rev)`` for any snapshot kind.

    * profile snapshots flatten each call path to its **self time**
      (seconds) plus a ``calls:`` series per path;
    * telemetry snapshots (and sweep aggregates carrying one) flatten
      through :func:`repro.obs.aggregate.flatten_telemetry`.
    """
    kind = doc.get("kind")
    if kind in ("telemetry", "sweep-aggregate"):
        return "telemetry", flatten_telemetry(telemetry_of(doc)), None
    if kind != "profile":
        raise ObservabilityError(
            "unrecognized snapshot: expected a profile, telemetry, or sweep "
            "aggregate document")
    flat = {}
    for span in doc.get("spans", ()):
        path = str(span.get("path", ""))
        if not path:
            continue
        flat[path] = float(span.get("self_s", 0.0))
        flat[f"calls:{path}"] = float(span.get("calls", 0))
    rev = doc.get("git_rev")
    return kind, flat, rev if isinstance(rev, str) else None


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


def diff_files(baseline_path: str, current_path: str,
               threshold: float = DEFAULT_DIFF_THRESHOLD,
               min_abs: float = DEFAULT_MIN_ABS) -> DiffReport:
    """Diff two snapshot files of one kind (the ``repro diff`` entry
    point)."""
    kind_b, flat_b, rev_b = flatten_snapshot(load_json(baseline_path))
    kind_c, flat_c, rev_c = flatten_snapshot(load_json(current_path))
    if kind_b != kind_c:
        raise ObservabilityError(
            f"cannot diff a {kind_b} snapshot against a {kind_c} snapshot")
    entries = diff_flat(flat_b, flat_c, threshold=threshold,
                        min_abs=min_abs)
    return DiffReport(kind=kind_b, baseline_label=baseline_path,
                      current_label=current_path, baseline_rev=rev_b,
                      current_rev=rev_c, entries=tuple(entries))


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
                     f"{fmt_value(entry.baseline):>14s} -> "
                     f"{fmt_value(entry.current):>14s} ({ratio}){note}")
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
