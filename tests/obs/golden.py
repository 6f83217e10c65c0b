"""Golden digests of every traced scenario (seed 1, default size).

``golden_traces.json`` pins, per scenario, the SHA-256 of the exported
JSONL trace in canonical form -- its lines sorted by ``(t, line)``, so
the order of records within one virtual instant does not count -- and,
for chaos plans, of the sorted-key JSON of ``result_to_dict(outcome)``.
``tests/obs/test_runner.py`` compares each run against it, so identical
traces are a tier-1 assertion rather than something each refactor
checks by hand.  A change that moves a trace on purpose regenerates the
file in the same commit, where the diff shows which scenarios moved::

    PYTHONPATH=src python tests/obs/golden.py --write

``report_golden.json`` is the record of what the reporting surfaces
printed before ``repro trace`` became one report: for six seed-1
scenarios, every deterministic value on every line of ``trace
--summary``, ``analyze`` (text and ``--markdown``), ``analyze --spans``
and ``profile`` (the flow-accounts table; not its wall-clock columns),
as ``[block, value, ...]`` with the block (heading) the line was printed
under.  It was written by ``golden.py --write-report`` at the commit
that added it, from surfaces that no longer exist, so it is not
regenerated.  Two edits since: the ``profile`` header facts, once the
call paths of the in-code profiler, are the layers of the time section
that replaced it (the quACK and arithmetic layers) with their calls;
and the ``quack.insert`` calls dropped to the identifiers folded one at
a time, once ``insert_many`` stopped calling ``insert`` below its
crossover.  ``tests/obs/test_report_golden.py`` finds every line of it
in the report.  A change that moves one of these traces on purpose drops
the scenario from the file: what it proves is that nothing printed was
lost.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from repro.chaos.harness import ChaosResult, result_to_dict
from repro.obs.runner import TraceRunResult, known_scenarios, run_traced
from repro.obs.trace import TraceEvent, dump_jsonl

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
REPORT_GOLDEN_PATH = Path(__file__).with_name("report_golden.json")

#: Scenario -> transfer size of the pinned report numbers.  The plans
#: run at the chaos default so that both crash windows, the quarantine
#: and the corruption window land mid-transfer.
REPORT_SCENARIOS = {
    "retransmission": 200_000, "ack-reduction": 200_000,
    "cc-division": 200_000, "crash-resume": 1460 * 600,
    "forged-power-sum": 1460 * 600, "corruption": 1460 * 600,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_jsonl(events: list[TraceEvent]) -> str:
    """The JSONL export with its lines sorted by ``(t, line)``."""
    jsonl = io.StringIO()
    dump_jsonl(events, jsonl)
    lines = jsonl.getvalue().splitlines(keepends=True)
    return "".join(line for _, line in sorted(
        zip((event.time for event in events), lines)))


def digests(result: TraceRunResult) -> dict[str, str]:
    """The pinned digests of one traced run."""
    found = {"trace_sha256": _sha256(canonical_jsonl(result.events))}
    if isinstance(result.outcome, ChaosResult):
        found["result_sha256"] = _sha256(
            json.dumps(result_to_dict(result.outcome), sort_keys=True))
    return found


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# -- printed values -----------------------------------------------------------

_PUNCTUATION = "()[]|,:;`*"


def line_states(line: str, values: list[str]) -> bool:
    """Does ``line`` print every one of ``values``?

    Words are split on whitespace and table pipes and stripped of
    punctuation; ``key=value`` also counts as its key and as its value.
    A name (letters joined by ``_``, ``;`` or ``.``: a metric series, a
    layer) may be part of a longer word, such as a labelled series.
    """
    words = set()
    for word in line.replace("|", " ").split():
        word = word.strip(_PUNCTUATION).rstrip(".")
        words.update((word, *word.rpartition("=")[::2]))
    return all(value in words
               or (any(char.isalpha() for char in value)
                   and any(char in value for char in "_;.")
                   and any(value in word for word in words))
               for value in (value.strip(_PUNCTUATION) for value in values))


def load_report_golden() -> dict[str, dict[str, list[list[str]]]]:
    return json.loads(REPORT_GOLDEN_PATH.read_text(encoding="utf-8"))


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
