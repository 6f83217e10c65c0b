"""Schema-drift guard: the instrumentation and EVENT_SCHEMA move together.

Walks every module under ``src/`` with :mod:`ast` and collects each
``TRACER.emit("<type>", t, field=..., ...)`` call site.  Two invariants:

* every event type emitted anywhere in the source is declared in
  :data:`repro.obs.schema.EVENT_SCHEMA` -- an undeclared emit would
  produce JSONL that ``python -m repro.obs.schema`` (the CI smoke job)
  rejects as an unknown type;
* every *required* field of a declared type is passed as a keyword at
  every call site that emits it -- otherwise the export is schema-valid
  only by accident of which code path ran.

This is the test that fails when someone adds an instrumentation point
without extending the vocabulary (or prunes the vocabulary while call
sites still reference it).

The same walk guards the event -> metric table
(:data:`repro.obs.schema.EVENT_METRICS`): a row may only read required
fields of its event, an instrumentation point may not write a metric by
hand that the table could derive, every metric an SLO budget names has
a source, and DESIGN.md §8 renders the vocabulary as it is.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from repro.obs.schema import EVENT_METRICS, EVENT_SCHEMA, STRING, Metric

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Metrics written with ``obs.count/observe`` at their site because
#: their value is not a field of any event (DESIGN.md §8 says why, one
#: by one).  Everything else is a row of ``EVENT_METRICS``.
DIRECT_METRICS = {
    "transport_detect_latency_seconds",
    "flowtable_flows_admitted_total",
    "flowtable_emission_latency_seconds",
    "quack_settled_in_order_total",
    "trace_packets_total",
    "trace_health_transitions_total",
}


def _is_tracer_emit(node: ast.Call) -> bool:
    """Match ``TRACER.emit(...)`` / ``obs.TRACER.emit(...)`` / self-hosted
    ``self.emit`` is deliberately NOT matched (Tracer internals)."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    owner = func.value
    if isinstance(owner, ast.Name):
        return owner.id == "TRACER"
    if isinstance(owner, ast.Attribute):
        return owner.attr == "TRACER"
    return False


def _is_direct_metric(node: ast.Call) -> bool:
    """Match ``obs.count(...)`` / ``obs.observe(...)``."""
    func = node.func
    return (isinstance(func, ast.Attribute)
            and func.attr in ("count", "observe")
            and isinstance(func.value, ast.Name) and func.value.id == "obs")


def _collect_sites(matches) -> list[tuple[str, int, str, set[str]]]:
    """Every matching call whose first argument is a string literal:
    (file, line, that literal, keyword names)."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and matches(node)):
                continue
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            sites.append((str(path.relative_to(SRC)), node.lineno,
                          node.args[0].value, keywords))
    return sites


def _is_agent_trace(node: ast.Call) -> bool:
    """Match ``self._trace("<type>", field=...)``: the sidecar agents'
    wrapper (``sidecar/agents.py``), which adds the time and ``flow``."""
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "_trace"
            and isinstance(func.value, ast.Name) and func.value.id == "self")


def collect_emit_sites() -> list[tuple[str, int, str, set[str]]]:
    return _collect_sites(_is_tracer_emit) + [
        (path, line, etype, keywords | {"flow"})
        for path, line, etype, keywords in _collect_sites(_is_agent_trace)]


def test_sources_contain_emit_sites():
    # The walk itself must be finding the instrumentation, or the other
    # assertions pass vacuously.
    sites = collect_emit_sites()
    assert len(sites) >= 30
    assert {etype for _, _, etype, _ in sites} >= {
        "link.drop", "transport.retransmit", "quack.decode",
        "sidecar.gap_detect"}


def test_every_emitted_type_is_declared():
    undeclared = [(f"{path}:{line}", etype)
                  for path, line, etype, _ in collect_emit_sites()
                  if etype not in EVENT_SCHEMA]
    assert not undeclared, (
        f"emit sites reference event types missing from EVENT_SCHEMA "
        f"(extend repro/obs/schema.py): {undeclared}")


def test_every_required_field_is_passed():
    # ``**kwargs`` forwarding (kw.arg None) makes a site unverifiable
    # statically; only the agents' ``_trace`` wrapper does that, and its
    # callers are sites in their own right.  The first test above would
    # still catch an unknown type at runtime via CI's JSONL validation.
    problems = []
    for path, line, etype, keywords in collect_emit_sites():
        required = set(EVENT_SCHEMA.get(etype, {}))
        missing = required - keywords
        if missing:
            problems.append((f"{path}:{line}", etype, sorted(missing)))
    assert not problems, (
        f"emit sites omit required schema fields: {problems}")


# -- the event -> metric table ------------------------------------------------

def test_metric_rows_read_required_fields_only():
    # An optional field may be absent at some call site; a row reading it
    # would raise KeyError there, in an enabled run only.  Label fields
    # are strings so that the updaters' child cache, keyed by the raw
    # value, cannot alias two values whose str() differ (True vs 1).
    problems = []
    for etype, rows in EVENT_METRICS.items():
        required = EVENT_SCHEMA.get(etype)
        if required is None:
            problems.append((etype, "not an event type"))
            continue
        for row in rows:
            for name in (*row.labels, *filter(None, [row.value])):
                if name not in required:
                    problems.append((etype, row.name, name, "not required"))
            for name in row.labels:
                if required.get(name) is not STRING:
                    problems.append((etype, row.name, name, "not a string"))
            if row.kind != "counter" and row.value is None:
                problems.append((etype, row.name, "no value field"))
    assert not problems, problems


def test_each_metric_has_one_shape():
    # The registry rejects a name re-registered with another kind or
    # label set -- at run time, on whichever event comes second.  Catch
    # it here instead.
    shapes: dict[str, set] = {}
    for rows in EVENT_METRICS.values():
        for row in rows:
            labelnames = tuple(sorted([*row.labels, *dict(row.const)]))
            shapes.setdefault(row.name, set()).add(
                (row.kind, labelnames, row.buckets))
    assert not {name: shape for name, shape in shapes.items()
                if len(shape) > 1}
    assert not DIRECT_METRICS & set(shapes)


def test_only_underivable_metrics_are_written_by_hand():
    sites = [(f"{path}:{line}", name)
             for path, line, name, _ in _collect_sites(_is_direct_metric)]
    assert sorted(name for _, name in sites) == sorted(DIRECT_METRICS), (
        f"obs.count/observe calls must be exactly the direct "
        f"metrics, once each; anything an event field can supply "
        f"belongs in schema.EVENT_METRICS: {sites}")


def test_every_slo_budget_metric_has_a_source():
    declared = DIRECT_METRICS | {row.name for rows in EVENT_METRICS.values()
                                 for row in rows}
    budget_files = sorted((ROOT / "benchmarks" / "slo").glob("*.json"))
    assert budget_files
    unknown = []
    for path in budget_files:
        for budget in json.loads(path.read_text())["budgets"]:
            name = budget.get("metric") or budget["ratio_of"]
            if name not in declared:
                unknown.append((path.name, budget["name"], name))
    assert not unknown, (
        f"SLO budgets name metrics nothing records: {unknown}")


# -- DESIGN.md §8 renders the vocabulary ----------------------------------------

def describe(row: Metric) -> str:
    """One table row as DESIGN.md writes it: ``name{labels}`` plus the
    field a counter adds (``+=``), a gauge is set to (``=``) or a
    histogram observes (``<-``)."""
    labels = sorted([*row.labels, *(f"{k}={v}" for k, v in row.const)])
    text = f"{row.name}{{{','.join(labels)}}}" if labels else row.name
    if row.value is not None:
        sign = {"counter": "+=", "gauge": "=", "histogram": "<-"}[row.kind]
        text += f" {sign} {row.value}"
    return text


def _design_section_8() -> str:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return text[text.index("\n## 8. "):text.index("\n## 9. ")]


def _table_rows(section: str, header: str) -> list[list[str]]:
    """Cells of the markdown table in ``section`` whose header row starts
    with ``header`` (backticks stripped)."""
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"| {header} |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "")
                     for cell in line.strip("|").split("|")])
    return rows


def test_design_event_table_matches_schema():
    rows = _table_rows(_design_section_8(), "event type")
    documented = {row[0]: (row[1], row[2]) for row in rows}
    expected = {
        etype: (", ".join(fields),
                "; ".join(describe(row)
                          for row in EVENT_METRICS.get(etype, ())) or "—")
        for etype, fields in EVENT_SCHEMA.items()}
    assert [row[0] for row in rows] == list(EVENT_SCHEMA), (
        "DESIGN.md §8 lists the event types in EVENT_SCHEMA order")
    assert documented == expected


def test_design_direct_metric_table_matches():
    rows = _table_rows(_design_section_8(), "direct metric")
    names = [name for row in rows
             for name in re.sub(r"\{[^}]*\}", "", row[0]).split(", ")]
    assert sorted(names) == sorted(DIRECT_METRICS)


# -- one reader of a trace ------------------------------------------------------

def test_each_event_type_is_a_dispatch_key_in_one_module():
    """Outside ``schema.py``, ``repro.obs`` names an event type in exactly
    one module: the span model (``causal.py``) or the collectors of the
    one pass (``analyze.py``).  Counting an event is a row of
    ``EVENT_METRICS``, which the pass replays -- not a second ``if``."""
    owners: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro" / "obs").glob("*.py")):
        if path.name == "schema.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value in EVENT_SCHEMA:
                owners.setdefault(node.value, set()).add(path.name)
    assert len(owners) >= 15
    assert not {etype: names for etype, names in owners.items()
                if len(names) > 1}
    assert set().union(*owners.values()) == {"analyze.py", "causal.py"}
