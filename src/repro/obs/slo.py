"""Declarative tail-latency budgets and the ``repro slo`` gate.

A budget file (``benchmarks/slo/seed_scenarios.json`` is one) names the
traced scenarios to run -- ``{"scenario", "seed", "total_bytes",
"loss"}`` entries -- and the bounds their merged metrics must satisfy.

Two budget shapes:

* **stat budgets** (``metric`` + ``stat`` + ``max``/``min``): evaluate
  one statistic of a metric -- exact-to-bucket quantiles
  (p50/p90/p99/p999), ``mean``/``max``/``count``/``sum`` for
  histograms, the summed ``value`` for counters.  ``labels`` narrows to
  matching series (subset match); matching series are combined before
  the statistic is taken.
* **ratio budgets** (``ratio_of`` + ``label`` + ``ok_values``): the
  fraction of a labeled counter family outside the ok set, e.g. the
  quACK decode failure rate.

Missing data is a violation by default ("the SLO was not measured" must
never read as "the SLO passed"); set ``"allow_missing": true`` on a
budget to tolerate it.

Scenario runs are virtual-time deterministic, so a budget either always
passes or always fails for a given code state -- exactly what a CI gate
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ObservabilityError
from repro.obs.aggregate import (
    combine_series,
    load_json,
    merge_snapshots,
    select_series,
)
from repro.obs.metrics import summarize_hist

#: Version stamp on budget files.
SLO_SCHEMA = 1


@dataclass
class BudgetVerdict:
    """One evaluated budget line."""

    name: str
    observed: float | None
    limit: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        shown = "-" if self.observed is None else f"{self.observed:.6g}"
        line = f"{mark}  {self.name:<46s} observed={shown:<12s} {self.limit}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


def load_budget_file(path: str) -> dict:
    """Read and structurally validate one budget document."""
    doc = load_json(path)
    if doc.get("kind") != "slo-budgets":
        raise ObservabilityError(
            f"{path}: not an slo-budgets document "
            f"(kind={doc.get('kind')!r})")
    schema = doc.get("schema")
    if not isinstance(schema, int) or schema > SLO_SCHEMA:
        raise ObservabilityError(
            f"{path}: budget schema {schema!r} not supported "
            f"(this build reads <= {SLO_SCHEMA})")
    if not isinstance(doc.get("budgets"), list) or not doc["budgets"]:
        raise ObservabilityError(f"{path}: no budgets declared")
    return doc


def run_scenarios(doc: dict, *,
                  progress: Callable[[str], None] | None = None) -> dict:
    """Run the document's scenarios traced; returns merged telemetry."""
    from repro.obs.runner import run_traced

    scenarios = doc.get("scenarios") or []
    if not scenarios:
        raise ObservabilityError(
            "budget document has no scenarios (pass --snapshot to "
            "evaluate against a saved telemetry snapshot instead)")
    snapshots = []
    for entry in scenarios:
        name = entry.get("scenario")
        if not isinstance(name, str):
            raise ObservabilityError(f"scenario entry without a name: "
                                     f"{entry!r}")
        kwargs = {key: entry[key]
                  for key in ("seed", "total_bytes", "loss")
                  if key in entry}
        if progress is not None:
            progress(f"slo: running {name} {kwargs}")
        snapshots.append(run_traced(name, profile=False, **kwargs).metrics)
    return merge_snapshots(snapshots)


def evaluate_budgets(budgets: list[dict],
                     snapshot: dict) -> list[BudgetVerdict]:
    """Evaluate every budget entry against a merged telemetry snapshot."""
    return [_evaluate_one(budget, snapshot) for budget in budgets]


def _bounds(budget: dict) -> tuple[str, Callable[[float], bool]]:
    limits = []
    checks = []
    if "max" in budget:
        limits.append(f"max={budget['max']:g}")
        checks.append(lambda value, m=budget["max"]: value <= m)
    if "min" in budget:
        limits.append(f"min={budget['min']:g}")
        checks.append(lambda value, m=budget["min"]: value >= m)
    if not checks:
        raise ObservabilityError(
            f"budget {budget.get('name')!r} declares neither max nor min")
    return " ".join(limits), lambda value: all(c(value) for c in checks)


def _missing(budget: dict, limit: str, why: str) -> BudgetVerdict:
    allow = bool(budget.get("allow_missing"))
    return BudgetVerdict(name=str(budget.get("name", "?")), observed=None,
                         limit=limit, ok=allow,
                         detail=why + ("" if allow else "; unmeasured SLOs "
                                       "fail by default"))


def _evaluate_one(budget: dict, snapshot: dict) -> BudgetVerdict:
    name = str(budget.get("name", "?"))
    limit, within = _bounds(budget)
    if "ratio_of" in budget:
        return _evaluate_ratio(budget, name, limit, within, snapshot)
    metric = budget.get("metric")
    if not isinstance(metric, str):
        raise ObservabilityError(f"budget {name!r}: no metric/ratio_of")
    stat = str(budget.get("stat", "value"))
    entries = select_series(snapshot, metric, budget.get("labels"))
    if not entries:
        return _missing(budget, limit, f"metric {metric!r} has no "
                        f"matching series")
    family = snapshot["families"][metric]
    combined = combine_series(entries, family["kind"])
    if family["kind"] == "histogram":
        count = combined["count"]
        if count < int(budget.get("min_count", 1)):
            return _missing(budget, limit,
                            f"only {count} samples "
                            f"(min_count={budget.get('min_count', 1)})")
        summary = summarize_hist(combined)
        if stat not in summary:
            raise ObservabilityError(
                f"budget {name!r}: stat {stat!r} not valid for a "
                f"histogram")
        observed = summary[stat]
    else:
        if stat not in ("value", "total"):
            raise ObservabilityError(
                f"budget {name!r}: stat {stat!r} not valid for a "
                f"{family['kind']}")
        observed = float(combined)
    ok = observed is not None and within(observed)
    return BudgetVerdict(name=name, observed=observed, limit=limit, ok=ok)


def _evaluate_ratio(budget: dict, name: str, limit: str,
                    within: Callable[[float], bool],
                    snapshot: dict) -> BudgetVerdict:
    metric = str(budget["ratio_of"])
    label = budget.get("label")
    ok_values = {str(v) for v in budget.get("ok_values", ())}
    if not isinstance(label, str) or not ok_values:
        raise ObservabilityError(
            f"budget {name!r}: ratio_of needs 'label' and 'ok_values'")
    entries = select_series(snapshot, metric, budget.get("labels"))
    total = sum(entry["value"] for entry in entries)
    if total <= 0:
        return _missing(budget, limit, f"counter {metric!r} recorded "
                        f"nothing")
    bad = sum(entry["value"] for entry in entries
              if str(entry.get("labels", {}).get(label)) not in ok_values)
    observed = bad / total
    return BudgetVerdict(name=name, observed=observed, limit=limit,
                         ok=within(observed),
                         detail=f"{bad:g}/{total:g} outside "
                                f"{sorted(ok_values)}")


def format_verdicts(source: str,
                    verdicts: list[BudgetVerdict]) -> str:
    failed = sum(1 for verdict in verdicts if not verdict.ok)
    lines = [f"{source}: {len(verdicts)} budgets, "
             + ("all within budget" if not failed
                else f"{failed} VIOLATED")]
    lines.extend("  " + verdict.render() for verdict in verdicts)
    return "\n".join(lines)
