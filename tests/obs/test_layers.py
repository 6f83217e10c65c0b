"""One layer table: ``repro trace`` times the boundaries the repo
benchmark times, under the same span names, from outside the program."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.errors import WireFormatError
from repro.netsim.core import Simulator
from repro.obs.layers import HANDLER_SPANS, LAYERS, TAP_SPAN, Recorder, resolve
from repro.obs.runner import run_traced
from repro.quack import decoder, wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar import consumer

ROOT = Path(__file__).parents[2]
TRACING = ROOT / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def test_the_layer_table_is_the_benchmarks(tracing):
    assert {name: tuple(resolve(target) for target in targets)
            for name, targets in LAYERS.items()} == tracing.SPANS
    assert HANDLER_SPANS == tracing.HANDLER_SPANS
    assert TAP_SPAN == tracing.TAP_SPAN


def test_a_traced_run_times_every_layer_it_enters_and_restores_them():
    originals = {target: vars(owner)[attribute]
                 for targets in LAYERS.values() for target in targets
                 for owner, attribute in (resolve(target),)}
    result = run_traced("ack-reduction", seed=1, total_bytes=60_000)
    _self_time, calls = obs.PROFILER.layer_times()
    assert {"netsim.run", "netsim.link_send", "netsim.node_receive",
            "transport.sender_rx", "transport.receiver_rx",
            "transport.sidecar_receipt", "sidecar.tap_observe",
            "sidecar.consumer_on_quack", "quack.insert",
            "quack.wire_encode", "quack.wire_decode"} <= set(calls)
    assert next(iter(result.path_times)) == ("run",)
    assert not obs.PROFILER.enabled
    for target, original in originals.items():
        owner, attribute = resolve(target)
        assert vars(owner)[attribute] is original, target


def test_install_starts_a_recording_with_no_spans():
    """A finished run's spans stay readable after it, but the next
    ``install()`` starts from none (the sidecar truncation suite installs
    by hand after whatever ran before it in the process)."""
    run_traced("ack-reduction", seed=1, total_bytes=30_000)
    assert obs.PROFILER.path_times()
    obs.PROFILER.install()
    assert obs.PROFILER.path_times() == {}


#: Run in a fresh interpreter: a traced run whose plan imports a module
#: the process had not loaded (it binds ``decode_delta`` by ``from x
#: import f`` while the wrappers are in), then a traced run that raises;
#: prints every ``repro`` module or class attribute still holding a
#: recorder wrapper afterwards.
_NO_WRAPPER_OUTLIVES = """
import importlib, json, sys
from repro.obs import runner

assert "repro.bench.tables" not in sys.modules
real, bound = runner.run_plan, []

def plan_that_imports(*args, **kwargs):
    tables = importlib.import_module("repro.bench.tables")
    bound.append(tables.decode_delta.__qualname__)
    return real(*args, **kwargs)

def plan_that_raises(*args, **kwargs):
    raise RuntimeError("boom")

runner.run_plan = plan_that_imports
runner.run_traced("blackout", seed=1, total_bytes=30_000)
runner.run_plan = plan_that_raises
try:
    runner.run_traced("blackout", seed=1)
except RuntimeError:
    pass

def wrapper(value):
    qualname = getattr(value, "__qualname__", "")
    return qualname.startswith("Recorder.") and "<locals>" in qualname

left = []
for name, module in list(sys.modules.items()):
    if module is None or not name.startswith("repro"):
        continue
    for key, value in vars(module).items():
        if wrapper(value):
            left.append(f"{name}.{key}")
        if isinstance(value, type) and value.__module__ == name:
            left += [f"{name}.{key}.{attr}"
                     for attr, held in vars(value).items() if wrapper(held)]
from repro.quack import decoder
print(json.dumps({"bound": bound, "left": left,
                  "restored": sys.modules["repro.bench.tables"].decode_delta
                  is decoder.decode_delta}))
"""


def test_no_wrapper_outlives_a_run():
    completed = subprocess.run(
        [sys.executable, "-c", _NO_WRAPPER_OUTLIVES], capture_output=True,
        text=True, timeout=120, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert completed.returncode == 0, completed.stderr
    found = json.loads(completed.stdout)
    assert found["bound"] == ["Recorder.wrap.<locals>.span"]
    assert found["left"] == []
    assert found["restored"]


class TestRecorder:
    def test_records_one_span_per_call(self):
        recorder = Recorder()
        recorder.install()
        try:
            wire.decode(wire.encode(PowerSumQuack(4)))
        finally:
            recorder.remove()
        paths = recorder.path_times()
        for name in ("quack.wire_encode", "quack.wire_decode"):
            calls, cum_s, self_s = paths[(name,)]
            assert calls == 1 and cum_s >= self_s >= 0.0

    def test_remove_restores_every_binding(self):
        run, decode = vars(Simulator)["run"], decoder.decode_delta
        recorder = Recorder()
        recorder.install()
        assert recorder.enabled
        assert vars(Simulator)["run"] is not run
        assert consumer.decode_delta is not decode   # the copied binding
        recorder.remove()
        assert not recorder.enabled
        assert vars(Simulator)["run"] is run
        assert decoder.decode_delta is decode is consumer.decode_delta
        wire.encode(PowerSumQuack(4))
        assert recorder.names == []

    def test_nested_spans_build_call_paths(self):
        mine = PowerSumQuack(4)
        recorder = Recorder()
        recorder.install()
        try:
            recorder.wrap("outer", mine.insert)(4)
        finally:
            recorder.remove()
        paths = recorder.path_times()
        assert set(paths) == {("outer",), ("outer", "quack.insert")}
        assert paths[("outer", "quack.insert")][0] == 1

    def test_self_time_excludes_children(self):
        recorder = Recorder()
        recorder.wrap("outer", recorder.wrap("inner", sum))(range(20_000))
        paths = recorder.path_times()
        _, outer_cum, outer_self = paths[("outer",)]
        _, inner_cum, inner_self = paths[("outer", "inner")]
        assert outer_self == pytest.approx(outer_cum - inner_cum)
        assert inner_self == pytest.approx(inner_cum)
        self_time, calls = recorder.layer_times()
        assert self_time == {"outer": outer_self, "inner": inner_self}
        assert calls == {"outer": 1, "inner": 1}

    def test_reentrant_same_name_nests(self):
        recorder = Recorder()
        recorder.wrap("work", recorder.wrap("work", len))(())
        assert set(recorder.path_times()) == {("work",), ("work", "work")}

    def test_exception_inside_span_unwinds_stack(self):
        recorder = Recorder()
        recorder.install()
        try:
            with pytest.raises(WireFormatError):
                recorder.wrap("outer", wire.decode)(b"")
            wire.encode(PowerSumQuack(4))
        finally:
            recorder.remove()
        assert set(recorder.path_times()) == {
            ("outer",), ("outer", "quack.wire_decode"),
            ("quack.wire_encode",)}

    def test_clear_drops_spans(self):
        recorder = Recorder()
        recorder.wrap("done", len)(())
        recorder.clear()
        assert recorder.path_times() == {}
        recorder.wrap("next", len)(())
        assert set(recorder.path_times()) == {("next",)}
