"""Golden digests of every traced scenario (seed 1, default size).

``golden_traces.json`` pins, per scenario, the SHA-256 of the exported
JSONL trace and -- for chaos plans -- of the sorted-key JSON of
``result_to_dict(outcome)``.  ``tests/obs/test_runner.py`` compares each
run against it, so "byte-identical traces" is a tier-1 assertion rather
than something each refactor checks by hand.  A change that moves a
trace on purpose regenerates the file in the same commit, where the
diff shows which scenarios moved::

    PYTHONPATH=src python tests/obs/golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from repro.chaos import ChaosResult, result_to_dict
from repro.obs.runner import TraceRunResult, known_scenarios, run_traced
from repro.obs.trace import dump_jsonl

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(result: TraceRunResult) -> dict[str, str]:
    """The pinned digests of one traced run."""
    jsonl = io.StringIO()
    dump_jsonl(result.events, jsonl)
    found = {"trace_sha256": _sha256(jsonl.getvalue())}
    if isinstance(result.outcome, ChaosResult):
        found["result_sha256"] = _sha256(
            json.dumps(result_to_dict(result.outcome), sort_keys=True))
    return found


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    golden = {name: digests(run_traced(name, seed=1))
              for name in known_scenarios()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
