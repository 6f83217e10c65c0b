"""Smoke test of the benchmark runner (not collected by tier-1: pytest's
``testpaths`` is ``tests``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_smoke.py

It runs every workload once at a tenth of the size, timed and traced,
and checks the emitted JSON against the names in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def test_smoke_run_matches_the_contract(tmp_path):
    out = tmp_path / "smoke.json"
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                    "--json", str(out)], check=True, timeout=120, cwd=REPO)
    suite = json.loads(out.read_text())
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)

    expected = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
                1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    seen = set()
    for run in suite["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        units = {name: entry["unit"]
                 for name, entry in run["metrics"].items()}
        assert units == expected[run["trace"]], run["workload"]
        for name, entry in run["metrics"].items():
            assert isinstance(entry["value"], (int, float)), name
        if run["trace"] == 0:
            assert all(entry["value"] > 0
                       for entry in run["metrics"].values())
    assert seen == {(spec["name"], trace)
                    for spec in contract["workloads"] for trace in (0, 1)}
