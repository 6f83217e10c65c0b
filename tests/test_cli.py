"""Tests for the command-line interface (repro.cli)."""

import itertools
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser, main
from repro.quack import wire
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestQuackCommands:
    def test_encode_decode_roundtrip(self, capsys):
        code, out = run_cli(capsys, "quack", "encode", "--ids", "11,22,33",
                            "--threshold", "4")
        assert code == 0
        frame = out.strip()
        code, out = run_cli(capsys, "quack", "decode", "--frame", frame,
                            "--log", "11,22,33,44,55")
        assert code == 0
        assert "missing (2): 44,55" in out

    def test_decode_nothing_missing(self, capsys):
        _, out = run_cli(capsys, "quack", "encode", "--ids", "7,8",
                         "--threshold", "2")
        frame = out.strip()
        code, out = run_cli(capsys, "quack", "decode", "--frame", frame,
                            "--log", "7,8")
        assert code == 0
        assert "missing (0): -" in out

    def test_decode_threshold_exceeded_exits_nonzero(self, capsys):
        _, out = run_cli(capsys, "quack", "encode", "--ids", "",
                         "--threshold", "2")
        frame = out.strip()
        code, out = run_cli(capsys, "quack", "decode", "--frame", frame,
                            "--log", "1,2,3,4,5")
        assert code == 1
        assert "threshold-exceeded" in out

    def test_decode_methods(self, capsys):
        _, out = run_cli(capsys, "quack", "encode", "--ids", "5",
                         "--threshold", "2")
        frame = out.strip()
        code, out = run_cli(capsys, "quack", "decode", "--frame", frame,
                            "--log", "5,6")
        assert code == 0 and "missing (1): 6" in out
        # Either root-finding method gives the answer the CLI prints.
        sender = PowerSumQuack(2)
        sender.insert_many([5, 6])
        delta = sender - wire.decode(bytes.fromhex(frame))
        for method in ("candidates", "factor"):
            result = decode_delta(delta, [5, 6], method=method)
            assert list(result.missing) == [6]

    def test_hex_ids_accepted(self, capsys):
        code, out = run_cli(capsys, "quack", "encode", "--ids",
                            "0xff,0x10", "--threshold", "2")
        assert code == 0

    def test_bad_ids_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["quack", "encode", "--ids", "1,banana"])

    def test_bad_hex_frame_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["quack", "decode", "--frame", "zz", "--log", "1"])

    def test_non_power_sum_frame_rejected(self, capsys):
        from repro.quack.strawman import EchoQuack
        frame = wire.encode(EchoQuack()).hex()
        with pytest.raises(SystemExit):
            main(["quack", "decode", "--frame", frame, "--log", "1"])


class TestOutOfRangeInput:
    """Input the library refuses ends in one error line, not a traceback:
    argparse rejects an out-of-range flag (exit 2), and a quACK the
    library cannot build or a frame it cannot parse is an ``error:``
    line."""

    @pytest.mark.parametrize("argv", [
        "quack encode --ids 1 --threshold 0",
        "quack encode --ids 1 --bits 0",
        "quack encode --ids 1 --count-bits 0",
        "trace blackout --capacity 0",
        "experiment cc-division --total 0",
        "trace cc-division --total 0",
        "chaos blackout --total 0",
        "experiment ack-reduction --every 0",
        "experiment cc-division --loss 1.5",
        "trace cc-division --loss -0.1",
        "analyze trace.jsonl --width 0",
        "tables fig5 --trials 0",
        "tables fig5 --trials -3",
        "experiment retransmission --reorder-threshold 0",
        "experiment retransmission --reorder-threshold -5",
    ])
    def test_flag_out_of_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv.split())
        assert stop.value.code == 2
        flag = argv.split()[-2]
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("quack decode --frame 00ff --log 1", "frame too short"),
        ("quack encode --ids 1 --bits 1", "need at least 2 bits"),
        ("quack encode --ids 1 --threshold 20 --count-bits 3",
         "count_bits=3 cannot express"),
    ])
    def test_library_refusal_is_an_error_line(self, argv, message):
        with pytest.raises(SystemExit) as stop:
            main(argv.split())
        assert str(stop.value.code).startswith("error: ")
        assert message in str(stop.value.code)


#: Cells each artifact must print at ``--trials 3``.  Table 2's sizes,
#: Table 3 and the Section 4.3 envelopes are analytic; the E11 survival
#: probabilities are seeded (2 trials per cell at ``--trials 3``) and
#: equal what the former ``repro headroom --trials 2`` printed.
ARTIFACT_CELLS = {
    "table2": ["| Strawman 1 (echo) | 222 us |", "| 32,000 | 31,360 |",
               "| ~7e+06 days |", "| 272 | 272 |", "| 656 | 656 |"],
    "table3": ["| 8 | 0.98 | 0.98 |", "| 16 | 0.015 | 0.0151 |",
               "| 24 | 6e-05 | 5.95e-05 |", "| 32 | 2.3e-07 | 2.33e-07 |"],
    "fig5": ["| threshold t | 16-bit (us) | 24-bit (us) | 32-bit (us) |",
             *(f"\n| {t} | " for t in (10, 20, 30, 40, 50))],
    "fig6": ["| missing m | 16-bit (us) | 24-bit (us) | 32-bit (us) |",
             *(f"\n| {m} | " for m in (0, 5, 10, 15, 20))],
    "sizing": ["| packets per RTT | ~1000 | 1000 |",
               "| missing per RTT (threshold t) | 20 | 20 |",
               "| quACK bytes (Strawman 1) | 82 | 82 (4000) |",
               "| 10.93 (533.3) |", "| 80 (128) |", "| 1.60x |",
               "| retransmission, 0.5% loss | quACK every N packets | - | 512 |",
               "| retransmission, 10.0% loss | quACK every N packets | - | 200 |"],
    "headroom": ["| 5 | 1.00 | 0.00 |", "| 10 | 1.00 | 0.50 |",
                 "| 20 | 1.00 | 1.00 |", "| 40 | 1.00 | 1.00 |"],
}


class TestTables:
    @pytest.mark.parametrize("which", [*ARTIFACT_CELLS, "all"])
    def test_prints_each_artifact(self, capsys, which):
        from repro.bench.tables import ARTIFACTS

        assert list(ARTIFACTS) == list(ARTIFACT_CELLS)
        names = list(ARTIFACTS) if which == "all" else [which]
        code, out = run_cli(capsys, "tables", which, "--trials", "3")
        assert code == 0
        # One titled markdown table per artifact, in table order.
        assert [line for line in out.splitlines()
                if line.startswith("## ")] == [
            f"## {ARTIFACTS[name].title}" for name in names]
        assert out.count("\n|---|") == len(names)
        for name in names:
            for cell in ARTIFACT_CELLS[name]:
                assert cell in out, (name, cell)

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "tables", "table3")
        assert code == 0
        assert "| bits | paper | ours |" in out
        assert "| 8 | 0.98 | 0.98 |" in out

    def test_table2_quick(self, capsys):
        code, out = run_cli(capsys, "tables", "table2", "--trials", "3")
        assert code == 0
        assert "| Power Sums |" in out and "| Strawman 1 (echo) |" in out


class TestSizing:
    """The Section 4.3 envelopes, one row each in ``tables sizing``."""

    def test_cc_division_defaults_match_paper(self, capsys):
        code, out = run_cli(capsys, "tables", "sizing")
        assert code == 0
        assert "| packets per RTT | ~1000 | 1000 |" in out
        assert "| quACK bytes (Strawman 1) | 82 | 82 (4000) |" in out

    def test_ack_reduction(self, capsys):
        code, out = run_cli(capsys, "tables", "sizing")
        assert code == 0
        assert ("| ack-reduction, every 32 packets | bandwidth saving "
                "| t < n wins | 1.60x |") in out

    def test_retransmission(self, capsys):
        code, out = run_cli(capsys, "tables", "sizing")
        assert code == 0
        assert ("| retransmission, 10.0% loss | quACK every N packets "
                "| - | 200 |") in out


class TestExperiments:
    def test_cc_division_small(self, capsys):
        code, out = run_cli(capsys, "experiment", "cc-division",
                            "--total", "150000", "--loss", "0.01")
        assert code == 0
        assert "completed: True" in out
        assert "goodput" in out

    def test_retransmission_baseline(self, capsys):
        code, out = run_cli(capsys, "experiment", "retransmission",
                            "--total", "150000", "--no-sidecar")
        assert code == 0
        assert "in-network retransmission: False" in out


class TestTrace:
    def test_summary_only(self, capsys):
        code, out = run_cli(capsys, "trace", "cc-division",
                            "--total", "60000")
        assert code == 0
        assert "scenario: cc-division" in out
        assert "events by component" in out
        assert [line for line in out.splitlines()
                if line.startswith("== ")] == [
            "== time ==", "== packets ==", "== assistance ==",
            "== coverage ==", "== metrics =="]

    def test_run_and_file_say_the_same_thing(self, capsys, tmp_path):
        """``trace X --jsonl f`` and ``analyze f`` print identical
        reports apart from the time section (CI diffs the same pair)."""
        path = tmp_path / "trace.jsonl"
        code, from_run = run_cli(capsys, "trace", "cc-division", "--total",
                                 "60000", "--jsonl", str(path), "--summary")
        assert code == 0
        code, from_file = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert from_run.startswith("== time ==\n")
        assert from_file.startswith("== packets ==\n")
        assert from_run[from_run.index("== packets =="):] == from_file

    def test_jsonl_export_is_schema_valid(self, capsys, tmp_path):
        from repro.obs.schema import validate_file

        path = tmp_path / "trace.jsonl"
        code, out = run_cli(capsys, "trace", "blackout",
                            "--total", "60000", "--jsonl", str(path))
        assert code == 0
        components = validate_file(str(path))
        for name in ("link", "transport", "quack", "sidecar"):
            assert components.get(name, 0) > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "frobnicate"])


class TestTraceFilter:
    def test_filter_keeps_only_matching_prefixes(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "trace", "retransmission",
                          "--total", "120000", "--jsonl", str(path),
                          "--filter", "sidecar.")
        assert code == 0
        import json as _json

        types = {_json.loads(line)["type"]
                 for line in path.read_text().splitlines()}
        assert types and all(t.startswith("sidecar.") for t in types)

    def test_filter_is_repeatable(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "trace", "retransmission",
                          "--total", "120000", "--jsonl", str(path),
                          "--filter", "sidecar.", "--filter", "quack.")
        assert code == 0
        import json as _json

        components = {_json.loads(line)["type"].split(".")[0]
                      for line in path.read_text().splitlines()}
        assert components == {"sidecar", "quack"}

    def test_filter_leaves_derived_metrics_out_of_the_direct_table(
            self, capsys):
        # The link counters are derived from link.* events; filtering
        # those events away does not make them written at their site.
        code, out = run_cli(capsys, "trace", "retransmission",
                            "--total", "60000", "--filter", "sidecar.")
        assert code == 0
        time = out[:out.index("== packets ==")]
        assert "trace_packets_total" in time
        assert "netsim_link_offered_total" not in time
        assert "transport_packets_sent_total" not in time

    def test_summary_reports_drop_ratio(self, capsys):
        code, out = run_cli(capsys, "trace", "cc-division",
                            "--total", "60000")
        assert code == 0
        assert "drop ratio" in out

    def test_truncated_ring_warns(self, capsys):
        code, out = run_cli(capsys, "trace", "cc-division",
                            "--total", "60000", "--capacity", "64")
        assert code == 0
        assert "WARNING: ring buffer truncated the trace" in out
        assert "raise --capacity" in out
        assert out.index("WARNING") < out.index("== packets ==")

    def test_analyze_filter_and_spans(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "trace", "retransmission",
                          "--total", "120000", "--jsonl", str(path))
        assert code == 0
        code, plain = run_cli(capsys, "analyze", str(path))
        code, out = run_cli(capsys, "analyze", str(path), "--spans")
        assert code == 0
        assert "span trees:" in out and "attribution per packet:" in out
        # --spans adds one example tree to the packets section.
        assert "\nctx " in out and "\nctx " not in plain
        # Filtering away the transport layer leaves no spans to build.
        code, out = run_cli(capsys, "analyze", str(path), "--spans",
                            "--filter", "quack.")
        assert code == 0
        assert "span trees: 0 packets" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        # "bench" was the legacy wall-clock store's subcommand, "profile"
        # is now the time section of "trace"; "report", "sizing" and
        # "headroom" are rows of "tables"; "diff" is "slo --against".
        for argv in (["frobnicate"], ["bench"],
                     ["profile", "retransmission"], ["report"],
                     ["sizing", "cc-division"], ["headroom"],
                     ["diff", "a.json", "b.json"]):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 2

    def test_subcommand_and_argument_counts(self):
        """The surface shrinks with the code: 9 subcommands, and
        trace + analyze take 15 arguments where trace + profile +
        analyze took 22 (18 before ``--alloc`` and ``--top`` went, 16
        before ``--json``)."""
        import argparse

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)).choices
        assert len(subparsers) == 9
        arguments = [action.dest for name in ("trace", "analyze")
                     for action in subparsers[name]._actions
                     if action.dest != "help"]
        assert len(arguments) == 15


REPO = pathlib.Path(__file__).resolve().parents[1]

#: Where ``python -m repro ...`` commands are written down for people
#: and for CI to run.
COMMAND_SOURCES = (*sorted((REPO / ".github" / "workflows").glob("*.yml")),
                   REPO / "README.md", REPO / "DESIGN.md",
                   REPO / "EXPERIMENTS.md",
                   REPO / ".claude" / "skills" / "verify" / "SKILL.md")


def documented_commands(text):
    """Argument lists of every ``python -m repro ...`` command in ``text``.

    Backslash continuations are joined.  A command inside a markdown
    inline-code span runs to the closing backtick (it may wrap a line),
    any other to the end of its line.  Commands holding ``<placeholders>``,
    shell globs/variables or elisions are skipped; synopsis forms are
    expanded (``[--flag]`` is taken as given, ``a|b|c`` yields one
    command per choice).  Prose that names a bare subcommand
    (```python -m repro trace` runs ...``) is checked as ``trace --help``.
    """
    text = re.sub(r"\\\n\s*", " ", text).replace("```", "")
    commands = []
    for match in re.finditer(r"python -m repro\s", text):
        paragraph = text.rfind("\n\n", 0, match.start()) + 1
        inline = text.count("`", paragraph, match.start()) % 2 == 1
        end = text.find("`" if inline else "\n", match.end())
        command = text[match.end():end if end >= 0 else len(text)]
        if re.search(r"[<*$…]|\.\.\.", command):
            continue
        tokens = shlex.split(command.replace("[", " ").replace("]", " "),
                             comments=True)
        for stop in ("|", "||", "&&", ">", ";"):
            if stop in tokens:
                tokens = tokens[:tokens.index(stop)]
        if inline and len(tokens) == 1:
            tokens.append("--help")
        if tokens:
            commands.extend(itertools.product(
                *(token.split("|") for token in tokens)))
    return commands


class TestDocumentedCommands:
    def test_every_written_down_command_still_parses(self, capsys):
        """A deleted subcommand, flag or file cannot linger in CI or docs."""
        parser = build_parser()
        checked, problems = [], []
        for source in COMMAND_SOURCES:
            for argv in documented_commands(
                    source.read_text(encoding="utf-8")):
                checked.append(argv)
                where = f"{source.relative_to(REPO)}: repro {' '.join(argv)}"
                try:
                    parser.parse_args(list(argv))
                except SystemExit as stop:
                    if stop.code:  # --help exits 0
                        problems.append(f"{where}: argparse rejects it")
                problems.extend(
                    f"{where}: {arg} does not exist" for arg in argv
                    if arg.startswith(("benchmarks/", "examples/"))
                    and not (REPO / arg).exists())
        capsys.readouterr()  # argparse's usage text for any rejection
        assert not problems, "\n".join(problems)
        # The extraction itself must be finding the commands, or the
        # assertion above passes vacuously.
        assert len(checked) >= 40
        assert ("sweep", "examples/sweeps/scale_grid.json", "--workers", "4",
                "--telemetry", "--output", "/tmp/scale-sweep.json") in checked
        assert ("tables", "fig6") in checked  # a table2|...|fig6 synopsis

    def test_every_written_down_path_exists(self):
        """Every backticked repo path to a ``.py``/``.json`` file names a
        file that exists (globs and placeholders are not paths)."""
        path = re.compile(r"(?<![\w/.-])((?:benchmarks|examples|tests|src)/"
                          r"[\w./-]*?\.(?:py|json))(?![\w/])")
        checked, missing = set(), []
        for source in COMMAND_SOURCES:
            text = re.sub(r"```.*?```", "",
                          source.read_text(encoding="utf-8"), flags=re.S)
            for span in re.findall(r"`([^`]+)`", text):
                for name in path.findall(span):
                    checked.add(name)
                    if not (REPO / name).exists():
                        missing.append(f"{source.relative_to(REPO)}: {name}")
        assert not missing, "\n".join(missing)
        assert len(checked) >= 20 and "benchmarks/test_fig5_construction.py" \
            in checked


def documented_plans(text):
    """``{plan: is_adversarial}`` over every *plan table* in ``text``.

    A plan table is a markdown table whose first header cell is
    ``plan``; its second column holds the ``*`` adversarial marker (as
    ``--list-plans`` prints it) and the rest is prose, which is not
    checked.  A plan listed twice must carry the same marker.
    """
    plans, in_table = {}, False
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.lstrip().startswith("|"):
            in_table = False
        elif cells[0].lower() == "plan":
            in_table = True
        elif in_table and not set(cells[0]) <= set("-: "):
            name, marked = cells[0].strip("`"), cells[1] == "*"
            assert plans.setdefault(name, marked) == marked, name
    return plans


class TestDocumentedPlans:
    """README and DESIGN list the plans ``--list-plans`` lists."""

    @pytest.fixture(scope="class")
    def listed(self):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["chaos", "--list-plans"]) == 0
        rows = [line.split(None, 2) for line
                in out.getvalue().splitlines() if not line.startswith("(")]
        return {row[0]: row[1] == "*" for row in rows}

    def test_list_plans_is_the_registry(self, listed):
        from repro.chaos.harness import PLANS

        assert listed == {name: plan.adversarial
                          for name, plan in PLANS.items()}
        assert sum(listed.values()) == 7 and len(listed) == 20

    @pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
    def test_plan_tables_match_list_plans(self, listed, document):
        text = (REPO / document).read_text(encoding="utf-8")
        assert documented_plans(text) == listed


class TestChaos:
    def test_single_plan_reports_and_passes(self, capsys):
        code, out = run_cli(capsys, "chaos", "blackout", "--seed", "1",
                            "--total", str(1460 * 300))
        assert code == 0
        assert "chaos plan: blackout" in out
        assert "invariants: all held" in out
        assert "final health:" in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(["chaos", "frobnicate"]) == 2
        assert "unknown chaos plan 'frobnicate'" in capsys.readouterr().err

    def test_no_plan_named_is_a_usage_error(self, capsys):
        assert main(["chaos"]) == 2
        assert "name a chaos plan" in capsys.readouterr().err


class TestAnalyze:
    def _trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "trace", "retransmission",
                          "--total", "120000", "--jsonl", str(path))
        assert code == 0
        return path

    def test_analyze_reports_attribution(self, capsys, tmp_path):
        path = self._trace_file(capsys, tmp_path)
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "loss-recovery attribution" in out
        assert "quACK decode health" in out
        assert "flow0 cwnd bytes" in out

    def test_analyze_markdown(self, capsys, tmp_path):
        path = self._trace_file(capsys, tmp_path)
        code, out = run_cli(capsys, "analyze", str(path), "--markdown")
        assert code == 0
        assert out.startswith("## packets\n")
        assert "**loss-recovery attribution" in out
        assert "| cause | count | mean | median | max |" in out

    def test_analyze_tolerates_garbage_lines(self, capsys, tmp_path):
        path = self._trace_file(capsys, tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n{broken\n")
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "2 malformed lines skipped" in out

    def test_analyze_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "analyze", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_analyze_unknown_flow(self, capsys, tmp_path):
        path = self._trace_file(capsys, tmp_path)
        code, _ = run_cli(capsys, "analyze", str(path), "--flow", "flow9")
        assert code == 2


class TestProfileCommand:
    """``repro profile`` is the time section of ``repro trace``."""

    def test_profile_prints_layers_and_flows(self, capsys):
        code, out = run_cli(capsys, "trace", "retransmission",
                            "--total", "60000")
        assert code == 0
        time = out[:out.index("== packets ==")]
        assert "wall clock: " in time
        assert "inside a layer other than netsim.run" in time
        for layer in ("netsim.run", "transport.sender_rx",
                      "quack.decode_delta", "arith.newton"):
            assert f" {layer}\n" in time, layer
        assert "flow0" in time  # per-flow middlebox accounting table

    def test_profile_writes_flame_and_json(self, capsys, tmp_path):
        # The flamegraph input is the one file of timings a run writes:
        # there is no JSON profile snapshot.
        flame = tmp_path / "out.folded"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "retransmission", "--flame", str(flame),
                  "--json", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        code, out = run_cli(capsys, "trace", "retransmission",
                            "--total", "60000", "--flame", str(flame))
        assert code == 0
        assert out == ""  # writing files: the report needs --summary
        folded = flame.read_text().splitlines()
        assert folded == sorted(folded)
        assert all(line.startswith("run") for line in folded)
        # Built from the parent chain: the decode sits under the handler
        # the simulator dispatched to.
        assert any(line.startswith("run;netsim.run;")
                   and ";quack.decode_delta;arith.newton " in line
                   for line in folded)

    def test_profile_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "frobnicate", "--flame", "x.folded"])


class TestFlightEvents:
    def test_chaos_flight_events_sets_ring_capacity(self, capsys, tmp_path):
        from repro import obs

        code, _ = run_cli(capsys, "chaos", "blackout", "--seed", "1",
                          "--total", str(1460 * 200),
                          "--flight-dir", str(tmp_path),
                          "--flight-events", "64")
        assert code == 0
        # configure() stored the requested ring capacity; the command
        # disarmed the recorder again on exit.
        assert obs.FLIGHT.last_n == 64
        assert not obs.FLIGHT.armed

    def test_vectors_check_accepts_flight_events(self, capsys, tmp_path):
        from repro import obs

        code, _ = run_cli(capsys, "vectors", "check",
                          "--flight-dir", str(tmp_path),
                          "--flight-events", "128")
        assert code == 0
        assert obs.FLIGHT.last_n == 128
        assert not obs.FLIGHT.armed
