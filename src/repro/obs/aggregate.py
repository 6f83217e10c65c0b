"""Cross-process telemetry aggregation: mergeable metric snapshots.

A sweep farms cells out to worker processes; each worker's
:class:`~repro.obs.metrics.MetricsRegistry` dies with it unless its
state comes back in a form the parent can *merge*.  A plain
``registry.snapshot()`` collapses histograms to summary statistics,
which cannot be combined (a mean of means is not the mean).  This
module defines the mergeable form:

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
Zero-valued series are dropped so a parent registry that happens to
hold pre-registered (but untouched) families merges identically to a
fresh worker registry.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry, json_safe

#: Version stamp on mergeable snapshots (artifact compatibility).
TELEMETRY_SCHEMA = 1

#: The quantiles a merged histogram is summarized at.
QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))


def mergeable_snapshot(registry: MetricsRegistry) -> dict:
    """Freeze a registry into the mergeable wire form.

    ``{"kind": "telemetry", "schema": 1, "families": {name: {...}}}``
    with each family carrying its kind, label names, and a sorted list
    of series (``value`` for counters/gauges, ``hist`` -- the full
    bucket state -- for histograms).
    """
    families: dict[str, dict] = {}
    for name, family in sorted(registry._families.items()):
        series = []
        for key, child in sorted(family._children.items()):
            labels = dict(zip(family.labelnames, key))
            if family.kind == "histogram":
                if child.count == 0:
                    continue
                series.append({"labels": labels,
                               "hist": child.to_mergeable()})
            else:
                value = child.snapshot()
                if value == 0.0:
                    continue
                series.append({"labels": labels,
                               "value": json_safe(value)})
        if series:
            families[name] = {"kind": family.kind,
                              "labelnames": list(family.labelnames),
                              "series": series}
    return {"kind": "telemetry", "schema": TELEMETRY_SCHEMA,
            "families": families}


def _series_key(entry: dict) -> tuple:
    return tuple(sorted((str(k), str(v))
                        for k, v in entry.get("labels", {}).items()))


def merge_hists(target: dict, extra: dict) -> dict:
    """Bucket-wise addition of two mergeable histogram states."""
    if list(target["buckets"]) != list(extra["buckets"]):
        raise ObservabilityError(
            f"cannot merge histograms with different buckets: "
            f"{target['buckets']} vs {extra['buckets']}")
    merged = {
        "buckets": list(target["buckets"]),
        "counts": [a + b for a, b in zip(target["counts"],
                                         extra["counts"])],
        "sum": (target["sum"] or 0.0) + (extra["sum"] or 0.0),
        "count": target["count"] + extra["count"],
    }
    mins = [h["min"] for h in (target, extra) if h.get("min") is not None]
    maxs = [h["max"] for h in (target, extra) if h.get("max") is not None]
    merged["min"] = min(mins) if mins else None
    merged["max"] = max(maxs) if maxs else None
    return merged


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge any number of mergeable snapshots into one.

    Commutative and associative over the snapshot set; an empty input
    merges to an empty snapshot.
    """
    families: dict[str, dict] = {}
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
            target = families.get(name)
            if target is None:
                families[name] = {
                    "kind": family["kind"],
                    "labelnames": list(family["labelnames"]),
                    "series": {_series_key(entry): _copy_series(entry)
                               for entry in family["series"]},
                }
                continue
            if target["kind"] != family["kind"]:
                raise ObservabilityError(
                    f"metric {name!r} is a {target['kind']} in one "
                    f"snapshot and a {family['kind']} in another")
            for entry in family["series"]:
                key = _series_key(entry)
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = _copy_series(entry)
                elif family["kind"] == "histogram":
                    existing["hist"] = merge_hists(existing["hist"],
                                                   entry["hist"])
                elif family["kind"] == "gauge":
                    existing["value"] = max(existing["value"],
                                            entry["value"])
                else:
                    existing["value"] = existing["value"] + entry["value"]
    merged_families = {
        name: {"kind": family["kind"],
               "labelnames": family["labelnames"],
               "series": [family["series"][key]
                          for key in sorted(family["series"])]}
        for name, family in sorted(families.items())
    }
    return {"kind": "telemetry", "schema": TELEMETRY_SCHEMA,
            "families": merged_families}


def _copy_series(entry: dict) -> dict:
    copied = {"labels": dict(entry.get("labels", {}))}
    if "hist" in entry:
        copied["hist"] = dict(entry["hist"],
                              buckets=list(entry["hist"]["buckets"]),
                              counts=list(entry["hist"]["counts"]))
    else:
        copied["value"] = entry["value"]
    return copied


def hist_quantile(hist: dict, q: float) -> float:
    """Exact-to-bucket quantile of a mergeable histogram state."""
    restored = Histogram(buckets=hist["buckets"])
    restored.counts = list(hist["counts"])
    restored.count = hist["count"]
    restored.sum = hist.get("sum") or 0.0
    maximum = hist.get("max")
    restored.maximum = maximum if maximum is not None else hist["buckets"][-1]
    minimum = hist.get("min")
    restored.minimum = minimum if minimum is not None else 0.0
    return restored.quantile(q)


def summarize_hist(hist: dict) -> dict:
    """Collapse a mergeable histogram to summary statistics."""
    count = hist["count"]
    total = hist.get("sum") or 0.0
    summary = {
        "count": count,
        "sum": json_safe(total),
        "mean": json_safe(total / count if count else 0.0),
        "min": json_safe(hist.get("min")),
        "max": json_safe(hist.get("max")),
    }
    for q, label in QUANTILES:
        summary[label] = json_safe(hist_quantile(hist, q))
    return summary


def summarize_snapshot(snapshot: dict) -> dict:
    """A merged snapshot with histograms collapsed to summaries.

    This is the human surface; the mergeable form stays the artifact of
    record.
    """
    out: dict[str, list] = {}
    for name, family in snapshot.get("families", {}).items():
        series = []
        for entry in family["series"]:
            if "hist" in entry:
                series.append({"labels": entry["labels"],
                               **summarize_hist(entry["hist"])})
            else:
                series.append({"labels": entry["labels"],
                               "value": entry["value"]})
        out[name] = series
    return out


def flatten_telemetry(snapshot: dict) -> dict[str, float]:
    """One scalar per series of a merged snapshot (``repro diff`` input).

    Counters/gauges flatten to one sample per series; histogram series
    flatten to their count plus exact-to-bucket p50/p99.  Keys look like
    ``telemetry_quack_decodes_total{status=ok}`` so they stay unique per
    label set.
    """
    flat: dict[str, float] = {}
    for name, series in summarize_snapshot(snapshot).items():
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
    """Fold matching series into one value (sum) or histogram (merge)."""
    if not entries:
        return None
    if kind == "histogram":
        merged = None
        for entry in entries:
            merged = entry["hist"] if merged is None \
                else merge_hists(merged, entry["hist"])
        return merged
    if kind == "gauge":
        return max(entry["value"] for entry in entries)
    return sum(entry["value"] for entry in entries)
