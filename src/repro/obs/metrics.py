"""Labeled metrics: counters, gauges, and histograms with a registry.

The registry is Prometheus-shaped but dependency-free: a *family* is a
named metric with a fixed tuple of label names, and each distinct label
assignment owns one child holding the actual value.  Families are
created (or fetched, idempotently) through
:meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram`;
:meth:`MetricsRegistry.snapshot` freezes everything into one plain,
JSON-safe document -- histograms with their full bucket state, so that
snapshots of separate processes can be merged
(:mod:`repro.obs.aggregate`) -- and :func:`summarize_hist` is the one
place bucket state collapses to mean / quantiles, for
:meth:`~MetricsRegistry.render_text`, ``repro slo`` and ``repro diff``
alike.

Naming convention (documented in DESIGN.md §8): metric names are
``<component>_<noun>[_<unit>][_total]`` -- ``netsim_link_delivered_total``,
``transport_cwnd_bytes``, ``transport_srtt_seconds``.  Counters end in
``_total``; gauges and histograms name their unit.

Non-finite values (``RttEstimator.min_rtt`` starts at ``float("inf")``)
are accepted at write time but sanitized to ``None`` at export time, so
a snapshot is always strictly valid JSON (``json.dumps`` with
``allow_nan=False`` would otherwise reject it, and with the default it
would emit the non-standard ``Infinity`` token).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from repro.errors import ObservabilityError

#: Default histogram buckets: log-spaced upper bounds covering 1 µs .. 10 s.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 10.0,
)

#: Per-family override for virtual-time detection/repair latencies:
#: these live at RTT scales (milliseconds to seconds), where the
#: default collapses everything past 1 s into one bucket.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 1.5, 2.0, 3.0, 5.0, 10.0,
)

#: Version stamp on registry snapshots (artifact compatibility).
TELEMETRY_SCHEMA = 1

#: The quantiles a histogram is summarized at.
QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))


class Metric(NamedTuple):
    """One metric an event type feeds (a row of ``schema.EVENT_METRICS``)."""

    kind: str                       # counter | gauge | histogram
    name: str
    labels: tuple[str, ...] = ()    # event fields used as label values
    #: Event field a gauge is set to, a histogram observes or a counter
    #: adds; None counts one per event.
    value: str | None = None
    const: tuple[tuple[str, object], ...] = ()  # labels with a fixed value
    buckets: tuple[float, ...] = DEFAULT_BUCKETS


def json_safe(value: object) -> object:
    """Return ``value`` with non-finite floats replaced by None.

    Guards every JSON export path: ``inf``/``nan`` are legal in-process
    (a gauge may mirror ``min_rtt`` before the first sample) but have no
    JSON representation.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; inc({amount}) is a gauge operation")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram of observations (latencies, sizes)."""

    __slots__ = ("buckets", "counts", "sum", "count", "minimum", "maximum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered:
            raise ObservabilityError("histogram needs at least one bucket")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1 for the overflow bucket
        self.sum = 0.0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        return hist_quantile(self.snapshot(), q)

    def merge(self, state: dict) -> None:
        """Add a peer's snapshot state bucket-wise (the bounds are equal:
        the family was asked for under the peer's)."""
        self.counts = [a + b for a, b in zip(self.counts, state["counts"])]
        self.sum += state["sum"] or 0.0
        self.count += state["count"]
        if state.get("min") is not None:
            self.minimum = min(self.minimum, state["min"])
        if state.get("max") is not None:
            self.maximum = max(self.maximum, state["max"])

    def snapshot(self) -> dict:
        """The full bucket state, sufficient to merge with a peer:
        histograms recorded in separate processes add bucket-wise
        (``repro.obs.aggregate``); :func:`summarize_hist` collapses it."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": json_safe(self.sum),
            "count": self.count,
            "min": json_safe(self.minimum if self.count else None),
            "max": json_safe(self.maximum if self.count else None),
        }


def hist_quantile(hist: dict, q: float) -> float:
    """Exact-to-bucket quantile of a histogram's snapshot state: the
    upper bound of the bucket the rank lands in (q in [0, 1]).

    When the rank lands in the overflow bucket (beyond the last
    configured bound) there is no configured upper bound; the observed
    maximum is the tightest upper bound available, clamped so the result
    never regresses below the last finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    if hist["count"] == 0:
        return 0.0
    rank = q * hist["count"]
    seen = 0
    for bound, count in zip(hist["buckets"], hist["counts"]):
        seen += count
        if seen >= rank:
            return bound
    return max(hist.get("max") or 0.0, hist["buckets"][-1])


def summarize_hist(hist: dict) -> dict:
    """Collapse a histogram's snapshot state to summary statistics."""
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


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
_APPLY = {"counter": Counter.inc, "gauge": Gauge.set,
          "histogram": Histogram.observe}


class MetricFamily:
    """One named metric plus its per-label-value children."""

    __slots__ = ("name", "kind", "labelnames", "buckets", "_children")

    def __init__(self, name: str, kind: str, labelnames: Sequence[str],
                 buckets: Sequence[float]) -> None:
        if kind not in _KINDS:
            raise ObservabilityError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: dict[tuple, Counter | Gauge | Histogram] = {}

    def labels(self, **labels: object) -> Counter | Gauge | Histogram:
        """The child for one label assignment (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.buckets) if self.kind == "histogram" \
                else _KINDS[self.kind]()
            self._children[key] = child
        return child

    def snapshot(self) -> dict:
        """Kind, label names and the sorted series -- ``value`` for a
        counter or gauge, ``hist`` (the bucket state) for a histogram.
        Zero-valued series are dropped, so a registry holding a family
        nothing touched merges identically to one that never saw it."""
        series = []
        for key, child in sorted(self._children.items()):
            labels, state = dict(zip(self.labelnames, key)), child.snapshot()
            if self.kind == "histogram":
                if state["count"]:
                    series.append({"labels": labels, "hist": state})
            elif state != 0.0:
                series.append({"labels": labels, "value": json_safe(state)})
        return {"kind": self.kind, "labelnames": list(self.labelnames),
                "series": series}


class MetricsRegistry:
    """Owner of every metric family; snapshot/reset/render surface."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: Event type -> its :meth:`updater` closures (``Tracer.emit`` fills
        #: it); they cache children, so :meth:`reset` drops them as well.
        self.updaters: dict[str, tuple[Callable[[dict], None], ...]] = {}

    # -- family constructors (get-or-create, idempotent) ------------------

    def _family(self, name: str, kind: str, labels: Sequence[str],
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, labels, buckets)
            self._families[name] = family
            return family
        if family.kind != kind or family.labelnames != tuple(labels):
            raise ObservabilityError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.labelnames}; asked for {kind} with "
                f"{tuple(labels)}")
        if kind == "histogram":
            asked = tuple(sorted(float(b) for b in buckets))
            if tuple(sorted(family.buckets)) != asked:
                raise ObservabilityError(
                    f"histogram {name!r} already registered with buckets "
                    f"{family.buckets}; asked for {asked} -- per-family "
                    f"bucket overrides must be consistent across call "
                    f"sites (mixed buckets cannot be merged)")
        return family

    def counter(self, name: str, labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", labels)

    def gauge(self, name: str, labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", labels)

    def histogram(self, name: str, labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", labels, buckets)

    def updater(self, row: Metric) -> Callable[[dict], None]:
        """Compile one ``schema.EVENT_METRICS`` row into ``update(fields)``.

        The closure writes what ``obs.count/gauge/observe`` would: family
        and child created on first use, label values ``str()``-ed, label
        names sorted.  Children are cached by the raw label values, so
        label fields must be strings (equal raw values share a child).
        """
        kind, name, labels, value, const, buckets = row
        const = dict(const)
        labelnames = tuple(sorted({*labels, *const}))
        key_of = itemgetter(*labels) if labels else (lambda fields: None)
        apply = _APPLY[kind]
        children: dict[object, Counter | Gauge | Histogram] = {}

        def update(fields: dict) -> None:
            key = key_of(fields)
            try:
                child = children[key]
            except KeyError:
                child = children[key] = self._family(
                    name, kind, labelnames, buckets).labels(
                    **const, **{label: fields[label] for label in labels})
            apply(child, 1.0 if value is None else fields[value])

        return update

    def merge_series(self, name: str, kind: str, labelnames: Sequence[str],
                     entry: dict) -> Counter | Gauge | Histogram:
        """Fold one series of another registry's snapshot into this one:
        counters add, gauges keep the maximum (the only order-independent
        choice that invents no value), histograms add bucket-wise."""
        family = self._family(
            name, kind, tuple(labelnames),
            entry["hist"]["buckets"] if kind == "histogram"
            else DEFAULT_BUCKETS)
        known = len(family._children)
        child = family.labels(**entry["labels"])
        if kind == "histogram":
            child.merge(entry["hist"])
        elif kind == "counter":
            child.inc(entry["value"])
        elif len(family._children) > known:      # first sight of the series
            child.set(entry["value"])
        else:
            child.set(max(child.value, entry["value"]))
        return child

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every family with a non-zero series, as one JSON-safe document:
        ``{"kind": "telemetry", "schema": 1, "families": {name: ...}}``."""
        families = ((name, family.snapshot())
                    for name, family in sorted(self._families.items()))
        return {"kind": "telemetry", "schema": TELEMETRY_SCHEMA,
                "families": {name: frozen for name, frozen in families
                             if frozen["series"]}}

    def reset(self) -> None:
        """Drop every family, series and updater, so a series an earlier
        run in the process touched does not come back as a zero."""
        self._families.clear()
        self.updaters.clear()

    def render_text(self) -> str:
        """A terminal-friendly metrics table, one series per line."""
        lines = [f"{series:<58s} {value}"
                 for series, value in series_rows(self.snapshot())]
        return "\n".join(lines) if lines else "(no metrics recorded)"


def series_rows(snapshot: dict) -> list[tuple[str, str]]:
    """``(name{labels}, rendered value)`` per series of a snapshot; a
    histogram renders as count / mean / p50 / p99 / max."""
    rows = []
    for name, family in snapshot["families"].items():
        for entry in family["series"]:
            labels = ",".join(f"{k}={v}" for k, v in entry["labels"].items())
            if "hist" in entry:
                stats = summarize_hist(entry["hist"])
                rendered = " ".join(f"{key}={fmt_value(stats[key])}" for key in
                                    ("count", "mean", "p50", "p99", "max"))
            else:
                rendered = fmt_value(entry["value"])
            rows.append((f"{name}{{{labels}}}" if labels else name, rendered))
    return rows


def fmt_value(value: object) -> str:
    """A metric value as the reports print it (``-`` for none)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)
