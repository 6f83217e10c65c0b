"""Labeled metrics: counters, gauges, and histograms with a registry.

The registry is Prometheus-shaped but dependency-free: a *family* is a
named metric with a fixed tuple of label names, and each distinct label
assignment owns one child holding the actual value.  Families are
created (or fetched, idempotently) through
:meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram`;
:meth:`MetricsRegistry.snapshot` freezes everything into plain
dictionaries, and :meth:`~MetricsRegistry.render_text` /
:meth:`~MetricsRegistry.render_json` turn a snapshot into a terminal
table or a JSON document.

Naming convention (documented in DESIGN.md §8): metric names are
``<component>_<noun>[_<unit>][_total]`` -- ``netsim_link_delivered_total``,
``transport_cwnd_bytes``, ``transport_srtt_seconds``.  Counters end in
``_total``; gauges and histograms name their unit.

Non-finite values (``RttEstimator.min_rtt`` starts at ``float("inf")``)
are accepted at write time but sanitized to ``None`` at export time, so
rendered JSON is always strictly valid (``json.dumps`` with
``allow_nan=False`` would otherwise reject it, and with the default it
would emit the non-standard ``Infinity`` token).
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Callable, Iterable, Sequence

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

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Exact-to-bucket quantile: the upper bound of the bucket the
        rank lands in (q in [0, 1]).

        When the rank lands in the overflow bucket (beyond the last
        configured bound) there is no configured upper bound; the
        observed maximum is the tightest upper bound available, clamped
        so the result never regresses below the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bound in enumerate(self.buckets):
            seen += self.counts[index]
            if seen >= rank:
                return bound
        return max(self.maximum, self.buckets[-1])

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": json_safe(self.sum),
            "mean": json_safe(self.mean),
            "min": json_safe(self.minimum if self.count else None),
            "max": json_safe(self.maximum if self.count else None),
            "p50": json_safe(self.quantile(0.5)),
            "p90": json_safe(self.quantile(0.9)),
            "p99": json_safe(self.quantile(0.99)),
            "p999": json_safe(self.quantile(0.999)),
        }

    def to_mergeable(self) -> dict:
        """The full bucket state, sufficient to merge with a peer.

        Unlike :meth:`snapshot` (which collapses to summary statistics),
        this keeps per-bucket counts so histograms recorded in separate
        processes can be added bucket-wise (``repro.obs.aggregate``).
        """
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": json_safe(self.sum),
            "count": self.count,
            "min": json_safe(self.minimum if self.count else None),
            "max": json_safe(self.maximum if self.count else None),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
_APPLY = {"counter": Counter.inc, "gauge": Gauge.set,
          "histogram": Histogram.observe}


class MetricFamily:
    """One named metric plus its per-label-value children."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children")

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if kind not in _KINDS:
            raise ObservabilityError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
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
        series = []
        for key, child in sorted(self._children.items()):
            series.append({
                "labels": dict(zip(self.labelnames, key)),
                "value": json_safe(child.snapshot())
                if self.kind != "histogram" else child.snapshot(),
            })
        return {"name": self.name, "kind": self.kind, "help": self.help,
                "series": series}


class MetricsRegistry:
    """Owner of every metric family; snapshot/reset/render surface."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: Event type -> its :meth:`updater` closures (``Tracer.emit`` fills
        #: it); they cache children, so :meth:`reset` drops them as well.
        self.updaters: dict[str, tuple[Callable[[dict], None], ...]] = {}

    # -- family constructors (get-or-create, idempotent) ------------------

    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str],
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, labels, buckets)
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

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets)

    def updater(self, kind: str, name: str, labels: Sequence[str] = (),
                value: str | None = None,
                const: Iterable[tuple[str, object]] = (),
                buckets: Sequence[float] = DEFAULT_BUCKETS,
                ) -> Callable[[dict], None]:
        """Compile one ``schema.EVENT_METRICS`` row into ``update(fields)``.

        The closure writes what ``obs.count/gauge/observe`` would: family
        and child created on first use, label values ``str()``-ed, label
        names sorted.  Children are cached by the raw label values, so
        label fields must be strings (equal raw values share a child).
        """
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
                    name, kind, "", labelnames, buckets).labels(
                    **const, **{label: fields[label] for label in labels})
            apply(child, 1.0 if value is None else fields[value])

        return update

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """All families and series as plain, JSON-safe dictionaries."""
        return {name: family.snapshot()
                for name, family in sorted(self._families.items())}

    def reset(self) -> None:
        """Drop every family, series and updater, so a series an earlier
        run in the process touched does not come back as a zero."""
        self._families.clear()
        self.updaters.clear()

    def render_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, allow_nan=False)

    def render_text(self) -> str:
        """A terminal-friendly metrics table (the ``--summary`` surface)."""
        lines: list[str] = []
        for name, family in sorted(self._families.items()):
            snap = family.snapshot()
            if not snap["series"]:
                continue
            for entry in snap["series"]:
                labels = ",".join(f"{k}={v}"
                                  for k, v in entry["labels"].items())
                qualified = f"{name}{{{labels}}}" if labels else name
                value = entry["value"]
                if family.kind == "histogram":
                    rendered = (f"count={value['count']} "
                                f"mean={_fmt(value['mean'])} "
                                f"p50={_fmt(value['p50'])} "
                                f"p99={_fmt(value['p99'])} "
                                f"max={_fmt(value['max'])}")
                else:
                    rendered = _fmt(value)
                lines.append(f"{qualified:<58s} {rendered}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)
