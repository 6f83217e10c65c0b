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
needs.  :func:`load_budget_file` checks every entry before anything
runs, so a malformed file is an error (``repro slo`` exit 2), never a
verdict.  ``repro slo --against BASELINE`` evaluates each budget on a
second snapshot too and prints it beside the current value: information
for the reader, not a second gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import ObservabilityError
from repro.obs.aggregate import (
    combine_series,
    load_json,
    merge_snapshots,
    select_series,
)
from repro.obs.analyze import Section, Table
from repro.obs.metrics import summarize_hist

#: Version stamp on budget files.
SLO_SCHEMA = 1

#: The keys a scenario entry may hold, with their types.
SCENARIO_KEYS = {"scenario": str, "seed": int, "total_bytes": int,
                 "loss": (int, float)}


@dataclass
class BudgetVerdict:
    """One evaluated budget line."""

    name: str
    observed: float | None
    limit: str
    ok: bool
    detail: str = ""


def _check_budget(budget: object) -> None:
    """Raise :class:`ObservabilityError` unless ``budget`` is a
    well-formed budget entry."""
    if not isinstance(budget, dict) or not isinstance(budget.get("name"),
                                                      str):
        raise ObservabilityError(
            f"a budget must be an object with a string 'name', got "
            f"{budget!r}")
    bounds = [key for key in ("max", "min") if key in budget]
    wrong = [key for key in bounds if isinstance(budget[key], bool)
             or not isinstance(budget[key], (int, float))]
    if ("metric" in budget) == ("ratio_of" in budget) or not isinstance(
            budget.get("metric", budget.get("ratio_of")), str):
        problem = "name exactly one 'metric' or 'ratio_of'"
    elif wrong:
        problem = f"{wrong[0]} must be a number, got {budget[wrong[0]]!r}"
    elif not bounds:
        problem = "neither max nor min"
    elif "ratio_of" in budget and not (
            isinstance(budget.get("label"), str)
            and isinstance(budget.get("ok_values"), list)
            and budget["ok_values"]):
        problem = "ratio_of needs 'label' and 'ok_values'"
    else:
        return
    raise ObservabilityError(f"budget {budget['name']!r}: {problem}")


def _check_scenario(entry: object) -> None:
    from repro.obs.runner import known_scenarios

    if not isinstance(entry, dict) \
            or entry.get("scenario") not in known_scenarios():
        raise ObservabilityError(
            f"{entry!r} names no scenario; have "
            f"{', '.join(known_scenarios())}")
    for key, value in entry.items():
        kind = SCENARIO_KEYS.get(key)
        if kind is None or isinstance(value, bool) \
                or not isinstance(value, kind):
            raise ObservabilityError(
                f"bad {key}={value!r} (an entry holds a scenario name, an "
                f"integer seed and total_bytes, a numeric loss)")


def load_budget_file(path: str) -> dict:
    """Read one budget document and check every entry of it."""
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
    budgets, scenarios = doc.get("budgets"), doc.get("scenarios", [])
    if not isinstance(budgets, list) or not budgets:
        raise ObservabilityError(f"{path}: no budgets declared")
    if not isinstance(scenarios, list):
        raise ObservabilityError(f"{path}: scenarios must be a list")
    entries = [(f"budgets[{index}]", _check_budget, budget)
               for index, budget in enumerate(budgets)]
    entries += [(f"scenarios[{index}]", _check_scenario, scenario)
                for index, scenario in enumerate(scenarios)]
    for where, check, entry in entries:
        try:
            check(entry)
        except ObservabilityError as exc:
            raise ObservabilityError(f"{path}: {where}: {exc}") from None
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
        name = entry["scenario"]
        kwargs = {key: value for key, value in entry.items()
                  if key != "scenario"}
        if progress is not None:
            progress(f"slo: running {name} {kwargs}")
        snapshots.append(run_traced(name, profile=False, **kwargs).metrics)
    return merge_snapshots(snapshots)


def evaluate_budgets(budgets: list[dict],
                     snapshot: dict) -> list[BudgetVerdict]:
    """Evaluate every budget entry against a merged telemetry snapshot."""
    for budget in budgets:
        _check_budget(budget)
    return [_evaluate_one(budget, snapshot) for budget in budgets]


def _bounds(budget: dict) -> tuple[str, Callable[[float], bool]]:
    low, high = budget.get("min", -math.inf), budget.get("max", math.inf)
    return (" ".join(f"{key}={budget[key]:g}" for key in ("max", "min")
                     if key in budget),
            lambda value: low <= value <= high)


def _missing(budget: dict, limit: str, why: str) -> BudgetVerdict:
    allow = bool(budget.get("allow_missing"))
    return BudgetVerdict(name=budget["name"], observed=None,
                         limit=limit, ok=allow,
                         detail=why + ("" if allow else "; unmeasured SLOs "
                                       "fail by default"))


def _evaluate_one(budget: dict, snapshot: dict) -> BudgetVerdict:
    name = budget["name"]
    limit, within = _bounds(budget)
    if "ratio_of" in budget:
        return _evaluate_ratio(budget, name, limit, within, snapshot)
    metric = budget["metric"]
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
    metric = budget["ratio_of"]
    label = budget["label"]
    ok_values = {str(v) for v in budget["ok_values"]}
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


def _shown(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def _ratio(baseline: float | None, current: float | None) -> str:
    if baseline is None or current is None \
            or (baseline == 0 and current != 0):
        return "-"
    return f"{current / baseline if baseline else 1.0:.3g}"


def verdict_section(title: str, current: list[BudgetVerdict],
                    baseline: list[BudgetVerdict] | None) -> Section:
    """One budget file's verdicts as a report section: a summary line and
    one row per budget.  ``baseline`` -- the same budgets evaluated on
    another snapshot -- fills the baseline and ratio columns; the
    verdict is the current side's."""
    failed = sum(1 for verdict in current if not verdict.ok)
    before = [verdict.observed for verdict in baseline] if baseline \
        else [None] * len(current)
    rows = [(verdict.name, _shown(then), _shown(verdict.observed),
             _ratio(then, verdict.observed), verdict.limit,
             ("ok" if verdict.ok else "FAIL")
             + (f" ({verdict.detail})" if verdict.detail else ""))
            for verdict, then in zip(current, before)]
    return Section(title, [
        f"{len(current)} budgets, "
        + ("all within budget" if not failed else f"{failed} VIOLATED"),
        Table("", ("budget", "baseline", "current", "ratio", "limit",
                   "verdict"), rows)])
