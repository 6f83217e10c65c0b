"""Golden digests of every traced scenario (seed 1, default size).

``golden_traces.json`` pins, per scenario, the SHA-256 of the exported
JSONL trace and -- for chaos plans -- of the sorted-key JSON of
``result_to_dict(outcome)``.  ``tests/obs/test_runner.py`` compares each
run against it, so "byte-identical traces" is a tier-1 assertion rather
than something each refactor checks by hand.  A change that moves a
trace on purpose regenerates the file in the same commit, where the
diff shows which scenarios moved::

    PYTHONPATH=src python tests/obs/golden.py --write

``report_golden.json`` pins what the reporting surfaces *print*: for six
seed-1 scenarios, every deterministic number on every line of
``trace --summary``, ``analyze`` (text and ``--markdown``),
``analyze --spans`` and ``profile`` (call-path names, the ``calls``
column and the flow-accounts table; not its wall-clock columns), each
tagged with the block it was printed under.
``tests/obs/test_report_golden.py`` holds the surfaces to it::

    PYTHONPATH=src python tests/obs/golden.py --write-report
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.chaos import ChaosResult, result_to_dict
from repro.obs.runner import TraceRunResult, known_scenarios, run_traced
from repro.obs.trace import dump_jsonl

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


# -- printed numbers ----------------------------------------------------------

_PUNCTUATION = "()[]|,:;`*"


def _is_name(word: str) -> bool:
    """A metric series or a call path: kept whole, digits or not."""
    return "_" in word or ";" in word


def _words(line: str) -> list[str]:
    words = (word.strip(_PUNCTUATION).rstrip(".")
             for word in line.replace("|", " ").split())
    return [word for word in words if word]


def value_tokens(line: str) -> list[str]:
    """The deterministic values one printed line states.

    Words are split on whitespace and table pipes and stripped of
    punctuation; ``key=value`` counts as its value; a word is kept when
    it holds a digit or names a metric series / call path, and the
    leading label of an otherwise numeric row (a cause, a state) with it.
    """
    words = _words(line)
    row = len(words) > 1 and all(any(char.isdigit() for char in word)
                                 for word in words[1:])
    tokens = []
    for index, word in enumerate(words):
        if "=" in word and not _is_name(word):
            word = word.rpartition("=")[2]
        if _is_name(word) or any(char.isdigit() for char in word) \
                or (row and index == 0):
            tokens.append(word)
    return tokens


def line_states(line: str, tokens: list[str]) -> bool:
    """Does ``line`` print every one of ``tokens``?  A name may be part
    of a longer word (a call path under a root span)."""
    words = set()
    for word in _words(line):
        words.update((word, word.rpartition("=")[2]))
    return all(token in words
               or (_is_name(token) and any(token in word for word in words))
               for token in tokens)


def _block_of(surface: str, line: str, block: str) -> str:
    """The block a line opens (else the one it continues)."""
    if surface == "trace --summary":
        return "metrics" if line == "metrics:" else block
    if surface == "analyze --markdown":
        return line[3:] if line.startswith("## ") else block
    if surface == "profile":
        return "flows" if line.startswith("flow ") else block
    if surface == "analyze":
        if line.startswith(("connection ", "loss-recovery attribution")):
            return line.split()[0]
        if line.endswith(":") and not line.startswith(" "):
            return line[:-1]
    return block


def printed_facts(surface: str, text: str) -> list[list[str]]:
    """``[block, token, ...]`` per line of ``text`` that states a value."""
    facts, block = [], "header"
    for line in text.splitlines():
        block = _block_of(surface, line, block)
        tokens = value_tokens(line)
        if surface == "profile" and block == "header":
            # "self ms, cum ms, calls, alloc, call path": wall-clock
            # columns, the scenario and the commit are not pinned.
            parts = line.split()
            tokens = [parts[4], parts[2]] \
                if len(parts) == 5 and parts[2].isdigit() else []
        if tokens:
            facts.append([block, *tokens])
    # ``profile`` lists call paths by self time, which is wall-clock.
    return sorted(facts) if surface == "profile" else facts


def _cli(*argv: str) -> str:
    from repro.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


def report_surfaces(scenario: str) -> dict[str, list[list[str]]]:
    """The printed facts of every reporting surface, for one scenario."""
    total = str(REPORT_SCENARIOS[scenario])
    with tempfile.TemporaryDirectory() as scratch:
        jsonl = str(Path(scratch) / "trace.jsonl")
        texts = {
            "trace --summary": _cli("trace", scenario, "--total", total,
                                    "--jsonl", jsonl, "--summary"),
            "analyze": _cli("analyze", jsonl),
            "analyze --markdown": _cli("analyze", jsonl, "--markdown"),
            "analyze --spans": _cli("analyze", jsonl, "--spans"),
            "profile": _cli("profile", scenario, "--total", total),
        }
    # The analyzed file's own path is the one token that is not the run's.
    return {surface: [fact for fact in printed_facts(surface, text)
                      if not any(scratch in token for token in fact)]
            for surface, text in texts.items()}


def load_report_golden() -> dict[str, dict[str, list[list[str]]]]:
    return json.loads(REPORT_GOLDEN_PATH.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv == ["--write-report"]:
        golden = {name: report_surfaces(name) for name in REPORT_SCENARIOS}
        REPORT_GOLDEN_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {REPORT_GOLDEN_PATH} ({len(golden)} scenarios)")
        return 0
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
