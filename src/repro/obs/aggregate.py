"""Cross-process telemetry aggregation: merging metric snapshots.

A sweep farms cells out to worker processes; each worker's
:class:`~repro.obs.metrics.MetricsRegistry` dies with it unless its
state comes back in a form the parent can *merge*.  That form is
``registry.snapshot()`` itself: it keeps every histogram's bucket state
rather than summary statistics, which cannot be combined (a mean of
means is not the mean).  This module merges and queries such snapshots:

* counters merge by **sum**;
* gauges merge by **max** (the only order-independent choice that does
  not invent values -- a merged gauge answers "what was the highest
  level any process saw");
* histograms merge by **bucket-wise count addition**, which is exact as
  long as every process used the same log-scaled bounds (enforced; the
  registry already rejects per-family bucket drift at registration).

Quantiles over a merged histogram are exact-to-bucket: the reported
p50/p90/p99/p999 is the upper bound of the bucket the rank lands in,
never an interpolation (``Histogram.quantile`` semantics).

Determinism: every series here is driven by virtual-time simulation
events, so a merged snapshot is a pure function of the cell set --
byte-identical no matter how many workers produced it or in which order
they finished (merging is commutative and series are emitted sorted).
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    TELEMETRY_SCHEMA,
    MetricsRegistry,
    summarize_hist,
)


def load_json(path: str) -> dict:
    """Read one JSON document (a snapshot, an aggregate, a budget file)."""
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


def telemetry_of(doc: Mapping) -> dict:
    """The metrics snapshot a document is, or -- a sweep aggregate --
    carries; ``merge_snapshots`` validates its kind and schema markers."""
    if doc.get("kind") == "sweep-aggregate":
        doc = doc.get("telemetry") or {}
        if not doc:
            raise ObservabilityError(
                "sweep aggregate carries no telemetry block "
                "(re-run the sweep with --telemetry)")
    return merge_snapshots([doc])


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge any number of snapshots into one, by replaying them into a
    registry -- which also rejects a metric that changes kind, label
    names or buckets from one snapshot to the next.

    Commutative and associative over the snapshot set; an empty input
    merges to an empty snapshot.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        if not snapshot:
            continue
        if snapshot.get("kind") != "telemetry":
            raise ObservabilityError(
                f"not a telemetry snapshot: kind={snapshot.get('kind')!r}")
        schema = snapshot.get("schema")
        if schema != TELEMETRY_SCHEMA:
            raise ObservabilityError(
                f"telemetry schema {schema!r} not supported "
                f"(this build reads {TELEMETRY_SCHEMA})")
        for name, family in snapshot.get("families", {}).items():
            for entry in family["series"]:
                merged.merge_series(name, family["kind"],
                                    family["labelnames"], entry)
    return merged.snapshot()


def flatten_telemetry(snapshot: dict) -> dict[str, float]:
    """One scalar per series of a merged snapshot (``repro diff`` input).

    Counters/gauges flatten to one sample per series; histogram series
    flatten to their count plus exact-to-bucket p50/p99.  Keys look like
    ``telemetry_quack_decodes_total{status=ok}`` so they stay unique per
    label set.
    """
    flat: dict[str, float] = {}
    for name, family in snapshot.get("families", {}).items():
        for entry in family["series"]:
            labels = entry["labels"]
            tag = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
            base = f"telemetry_{name}" + (f"{{{tag}}}" if tag else "")
            if "value" in entry:
                stats = {"": entry["value"]}
            else:
                summary = summarize_hist(entry["hist"])
                stats = {"_count": summary["count"], "_p50": summary["p50"],
                         "_p99": summary["p99"]}
            for suffix, value in stats.items():
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    continue
                flat[base + suffix] = float(value)
    return flat


def select_series(snapshot: dict, metric: str,
                  labels: dict | None = None) -> list[dict]:
    """Series of ``metric`` whose labels are a superset of ``labels``."""
    family = snapshot.get("families", {}).get(metric)
    if family is None:
        return []
    wanted = {str(k): str(v) for k, v in (labels or {}).items()}
    selected = []
    for entry in family["series"]:
        have = {str(k): str(v) for k, v in entry.get("labels", {}).items()}
        if all(have.get(k) == v for k, v in wanted.items()):
            selected.append(entry)
    return selected


def combine_series(entries: list[dict], kind: str) -> dict | float | None:
    """Fold matching series into one value (a sum; a gauge's maximum) or
    one histogram state (the bucket-wise sum)."""
    if not entries:
        return None
    scratch = MetricsRegistry()
    for entry in entries:
        child = scratch.merge_series("combined", kind, (),
                                     {**entry, "labels": {}})
    return child.snapshot()
