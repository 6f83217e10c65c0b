"""Tests for the time section and the folded (flamegraph) export."""

import pytest

from repro.obs import perf
from repro.obs.layers import Recorder


def _profiled_run():
    recorder = Recorder()

    def decode():
        recorder.wrap("newton", sum)(range(5000))
        recorder.wrap("rootfind", sum)(range(5000))

    recorder.wrap("decode", decode)()
    return recorder.path_times()


class TestProfileSnapshot:
    def test_format_profile_lists_heaviest_paths(self):
        # "format": the call paths laid out as items of the report's time
        # section, which the two renderers walk: one row per layer.
        path_times = _profiled_run()
        wall, layers = perf.profile_items(path_times, {}, "decode")
        assert wall.startswith("wall clock: ")
        assert wall.endswith("inside a layer other than netsim.run")
        assert layers.columns == ("self ms", "of wall", "calls", "layer")
        assert sorted(row[-1] for row in layers.rows) == ["newton",
                                                          "rootfind"]
        self_ms = [float(row[0]) for row in layers.rows]
        assert self_ms == sorted(self_ms, reverse=True)
        share = float(wall.split(", ")[1].split("%")[0]) / 100
        _calls, cum_s, self_s = path_times[("decode",)]
        assert share == pytest.approx(1 - self_s / cum_s, abs=1e-3)

    def test_format_profile_includes_flow_table(self):
        ledger = perf.profile_items(
            _profiled_run(), {"flow0": {"observed": 4, "frames_emitted": 2,
                                        "bytes_emitted": 164,
                                        "bank_bytes": 82}}, "decode")[-1]
        assert ledger.rows == [("flow0", "4", "2", "164", "82")]

    def test_empty_profile_says_so(self):
        assert perf.profile_items(Recorder().path_times(), {}, "run") == [
            "(no spans recorded)"]


class TestFolded:
    def test_folded_lines_are_sorted_integer_microseconds(self):
        text = perf.render_folded(_profiled_run())
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "decode;newton" in {line.rsplit(" ", 1)[0] for line in lines}
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) > 0

    def test_folded_omits_zero_weight_paths(self):
        assert perf.render_folded({("a",): [1, 0.0, 0.0],
                                   ("a", "b"): [2, 0.5, 0.5]}) == "a;b 500000"

    def test_write_folded(self, tmp_path):
        path_times = _profiled_run()
        path = str(tmp_path / "deep" / "out.folded")
        assert perf.write_folded(path_times, path) == path  # makes the dir
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read().rstrip("\n") == perf.render_folded(
                path_times)
