"""Compare two result files written by ``run.py --json``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians and quartiles,
the bound from BENCHMARK.json, and a verdict for B against A:

* ``better`` / ``worse`` -- the medians differ by more than the bound;
* ``same`` -- they do not;
* ``unresolved`` -- the spread of either side is wider than the bound
  and the two sides overlap, so the runs cannot tell.

When both files were made from the same ``--seed`` the inputs are the
same, and the counts the program makes must be too: ``calls_per_op`` may
then differ by 1% at most, and the simulated outcomes ``sim.*`` (from the
traced runs, where present) must be equal.  Exits 1 on any ``worse`` or
when more unit runs failed in B than in A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SAME_SEED_BOUNDS = {"calls_per_op": 0.01}
EXACT_LAYER_METRICS = ("sim.goodput_mbps", "sim.emission_p99_ms")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _values(suite: dict, workload: str, metric: str, trace: int):
    """(one value per run, the samples inside the runs)."""
    values, samples = [], []
    for run in suite["runs"]:
        if run["workload"] == workload and run["trace"] == trace \
                and metric in run["metrics"]:
            values.append(run["metrics"][metric]["value"])
            samples.extend(run.get("samples", {}).get(metric, ()))
    return values, samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _row(workload, spec, a_values, a_samples, b_values, b_samples, bound):
    # Quartiles come from the runs when there are several, else from
    # the samples taken inside the single run.
    a_spread = a_values if len(a_values) > 1 else (a_samples or a_values)
    b_spread = b_values if len(b_values) > 1 else (b_samples or b_values)
    a_q, b_q = _quartiles(a_spread), _quartiles(b_spread)
    a_median, b_median = (statistics.median(a_values),
                          statistics.median(b_values))
    sign = 1 if spec["better"] == "lower" else -1
    change = sign * (b_median - a_median) / a_median if a_median else 0.0
    wide = max((q[2] - q[0]) / q[1] if q[1] else 0.0
               for q in (a_q, b_q)) > bound
    overlap = (min(b_spread) <= max(a_spread)
               and min(a_spread) <= max(b_spread))
    if bound == 0:
        verdict = "same" if a_median == b_median else "worse"
    elif wide and overlap and len(a_spread) > 1:
        verdict = "unresolved"
    elif change > bound:
        verdict = "worse"
    elif change < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"workload": workload, "metric": spec["name"],
            "unit": spec["unit"], "a_median": a_median, "a_quartiles": a_q,
            "b_median": b_median, "b_quartiles": b_q, "bound": bound,
            "change": change, "verdict": verdict}


def compare(contract: dict, a: dict, b: dict) -> list[dict]:
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    rows = []
    for workload in (spec["name"] for spec in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a_values, a_samples = _values(a, workload, spec["name"], 0)
            b_values, b_samples = _values(b, workload, spec["name"], 0)
            if not a_values or not b_values:
                continue
            bound = spec["bound"]
            if same_seed:
                bound = SAME_SEED_BOUNDS.get(spec["name"], bound)
            rows.append(_row(workload, spec, a_values, a_samples,
                             b_values, b_samples, bound))
        for spec in contract["per_layer"]:
            if spec["name"] not in EXACT_LAYER_METRICS or not same_seed:
                continue
            a_values, _ = _values(a, workload, spec["name"], 1)
            b_values, _ = _values(b, workload, spec["name"], 1)
            if any(a_values) and any(b_values):   # 0: not on this workload
                rows.append(_row(workload, spec, a_values, [], b_values, [],
                                 0))
        failed_a = sum(r["failed"] for r in a["runs"]
                       if r["workload"] == workload)
        failed_b = sum(r["failed"] for r in b["runs"]
                       if r["workload"] == workload)
        if failed_b > failed_a:
            rows.append({"workload": workload, "metric": "failed",
                         "unit": "count", "a_median": failed_a,
                         "a_quartiles": (failed_a,) * 3,
                         "b_median": failed_b,
                         "b_quartiles": (failed_b,) * 3, "bound": 0,
                         "change": 1.0, "verdict": "worse"})
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':16s} {'metric':18s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'bound':>6s} {'change':>8s} verdict")
    for row in rows:
        cells = [f"{row[side + '_median']:.4g} "
                 f"[{row[side + '_quartiles'][0]:.4g}.."
                 f"{row[side + '_quartiles'][2]:.4g}]" for side in "ab"]
        print(f"{row['workload']:16s} {row['metric']:18s} {cells[0]:>34s} "
              f"{cells[1]:>34s} {row['bound']:6.0%} {row['change']:+8.1%} "
              f"{row['verdict']}")


def exit_code(rows: list[dict]) -> int:
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    rows = compare(contract, load(argv[0]), load(argv[1]))
    print_rows(rows)
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
