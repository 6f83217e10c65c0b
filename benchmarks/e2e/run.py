"""The repo benchmark: host cost per simulated packet, end to end and by layer.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is the result object
        (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).
    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--json OUT]
        every workload, each in its own subprocess; --json also keeps
        the spans of the traced runs in OUT.<workload>.spans.jsonl.
    python3 benchmarks/e2e/run.py --sets 2
        the whole suite twice, compared with compare.py; the differences
        seen are written to REPEATABILITY.json beside this file.
    python3 benchmarks/e2e/run.py --smoke
        every workload once at a tenth of the size (for CI).

This process only starts ``worker.py`` and prints; it never imports the
program.  See README.md for what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from calib import CALIB_REF_US, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """The environment every worker starts in (hygiene guard: a stray
    hash seed or scheduler switch would measure another program)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_SCHEDULER", None)
    return env


def launch(*args: str) -> tuple[float, str]:
    """Run the worker to completion; returns (wall seconds, stdout).

    ``subprocess.run`` kills and reaps the child on timeout, so nothing
    this process started outlives it.
    """
    started = perf_counter()
    done = subprocess.run([sys.executable, WORKER, *args], env=child_env(),
                          cwd=REPO, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited "
                         f"{done.returncode}")
    return elapsed, done.stdout


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, spans_out: str | None = None) -> dict:
    """One run of one workload: the worker's body plus ``setup_s``."""
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    body_args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        if spans_out:
            body_args += ["--spans-out", spans_out]
        return json.loads(launch(*body_args)[1].splitlines()[-1])
    # Set-up: interpreter start -> imports and inputs done -> exit, in a
    # cold process each time, in reference-machine seconds like
    # norm_us_per_op; the median of several launches.
    launches = []
    for _ in range(1 if smoke else SETUP_LAUNCHES):
        before = calibrate()
        wall = launch(*common, "--phase", "setup")[0]
        launches.append(wall / ((before + calibrate()) / 2)
                        * CALIB_REF_US / 1e6)
    body = json.loads(launch(*body_args)[1].splitlines()[-1])
    body["metrics"]["setup_s"] = {"value": statistics.median(launches),
                                  "unit": "s"}
    body["samples"]["setup_s"] = launches
    return body


def print_run(contract: dict, workload: str, body: dict, trace: int) -> None:
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    head = (f"{workload}: {'per-layer' if trace else 'end-to-end'}; "
            f"{body['attempted']} unit runs checked, {body['failed']} failed")
    if not trace:
        head += (f"; {body['passes']} passes x {body['units']} units, "
                 f"{body['ops_per_pass']} ops/pass")
    print(head)
    for failure in body["failures"]:
        print(f"  FAILED {failure}")
    for name, entry in body["metrics"].items():
        samples = len(body.get("samples", {}).get(name, ())) or 1
        bound = f"bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"  {name:44s} {entry['value']:14.4f} {entry['unit']:7s} "
              f"n={samples:<3d} {bound}")
    for name, value in body.get("host", {}).items():
        print(f"  {name:44s} {value:14.4f} (unbounded)")


def result_line(body: dict) -> str:
    return json.dumps({key: body[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_suite(contract: dict, seed: int, seconds: float, traced: bool,
              smoke: bool, out: str | None = None) -> dict:
    """Every workload, each in its own subprocess.  With ``out`` the
    traced runs also write their spans to ``out.<workload>.spans.jsonl``."""
    runs = []
    for spec in contract["workloads"]:
        for trace in (0, 1) if traced else (0,):
            spans = f"{out}.{spec['name']}.spans.jsonl" if out else None
            body = measure(spec["name"], seed, seconds, trace, smoke, spans)
            print_run(contract, spec["name"], body, trace)
            runs.append(dict(body, workload=spec["name"], trace=trace))
    return {"seed": seed, "seconds": seconds, "smoke": smoke, "runs": runs}


def repeatability(contract: dict, seed: int, seconds: float,
                  sets: int) -> int:
    """Run the suite ``sets`` times, compare neighbours, record what the
    same commit differs by from one set to the next."""
    import compare

    suites = [run_suite(contract, seed, seconds, False, False)
              for _ in range(sets)]
    worst, observed = 0, {}
    for a, b in zip(suites, suites[1:]):
        rows = compare.compare(contract, a, b)
        compare.print_rows(rows)
        worst = max(worst, compare.exit_code(rows))
        for row in rows:
            key = f"{row['workload']}/{row['metric']}"
            observed[key] = max(observed.get(key, 0.0), abs(row["change"]))
    with open(os.path.join(HERE, "REPEATABILITY.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": seed, "seconds": seconds, "sets": sets,
                   "set_to_set_change": observed}, fh, indent=1,
                  sort_keys=True)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: also run the per-layer pass")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--sets", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("run.py: src/repro is not here; nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [spec["name"] for spec in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]

    if args.sets:
        return repeatability(contract, args.seed, seconds, args.sets)
    if args.workload is None:
        suite = run_suite(contract, args.seed, seconds,
                          args.traced or args.smoke, args.smoke,
                          os.path.abspath(args.json) if args.json else None)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(suite, fh, indent=1)
        return 0 if all(run["correct"] for run in suite["runs"]) else 1
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    body = measure(args.workload, args.seed, seconds, args.trace, args.smoke)
    print_run(contract, args.workload, body, args.trace)
    print(result_line(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
