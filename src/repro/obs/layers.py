"""The layer table, and the recorder that times it from outside.

:data:`LAYERS` maps each span name (the ``<package>.<what>`` of the repo
benchmark's per-layer metrics) to the public callables it covers, as
``"module:Owner.attribute"`` or ``"module:function"``;
:data:`HANDLER_SPANS` and :data:`TAP_SPAN` cover the handlers and taps
the program registers at run time.  It is the table
``benchmarks/e2e/tracing.py`` patches (``tests/obs/test_layers.py``
holds the two equal), resolved only by :meth:`Recorder.install`.

No code path carries instrumentation: :meth:`Recorder.install` replaces
each callable with a timing wrapper, :meth:`Recorder.remove` puts every
original back.  A span is (name, start, end, parent) in parallel lists;
a layer's self time is its spans' duration minus what their children
cover.  Wall clock stays out of ``obs.METRICS``.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

#: span name <- the public callables it covers.
LAYERS: dict[str, tuple[str, ...]] = {
    "netsim.run": ("repro.netsim.core:Simulator.run",),
    "netsim.link_send": ("repro.netsim.link:Link.send",),
    "netsim.node_receive": ("repro.netsim.node:Host.receive",
                            "repro.netsim.node:Router.receive"),
    "transport.sidecar_receipt":
        ("repro.transport.connection:SenderConnection.sidecar_receipt",),
    "transport.sidecar_loss":
        ("repro.transport.connection:SenderConnection.sidecar_loss",),
    "transport.rangeset_add": ("repro.transport.ranges:RangeSet.add",
                               "repro.transport.ranges:RangeSet.add_range"),
    "sidecar.tap_observe": ("repro.sidecar.cc_division:PacingProxy.on_packet",),
    "sidecar.consumer_on_quack":
        ("repro.sidecar.consumer:QuackConsumer.on_quack",),
    "sidecar.consumer_record_send":
        ("repro.sidecar.consumer:QuackConsumer.record_send",),
    "sidecar.emitter_note": ("repro.sidecar.emitter:QuackEmitter.note",
                             "repro.sidecar.emitter:QuackEmitter.observe"),
    "sidecar.emitter_emit": ("repro.sidecar.emitter:QuackEmitter.emit",),
    "sidecar.flowtable_admit": ("repro.sidecar.flowtable:FlowTable.admit",),
    "sidecar.flowtable_observe":
        ("repro.sidecar.flowtable:FlowTable.observe",),
    "sidecar.flowtable_flush": ("repro.sidecar.flowtable:FlowTable.flush",),
    "sidecar.flowtable_close_flow":
        ("repro.sidecar.flowtable:FlowTable.close_flow",),
    "quack.insert": ("repro.quack.power_sum:PowerSumQuack.insert",),
    "quack.remove": ("repro.quack.power_sum:PowerSumQuack.remove",),
    "quack.insert_many": ("repro.quack.power_sum:PowerSumQuack.insert_many",),
    "quack.sub": ("repro.quack.power_sum:PowerSumQuack.__sub__",),
    "quack.decode_delta": ("repro.quack.decoder:decode_delta",),
    "quack.wire_encode": ("repro.quack.wire:encode",),
    "quack.wire_decode": ("repro.quack.wire:decode",),
    "arith.newton": ("repro.arith.newton:power_sums_to_elementary",
                     "repro.arith.newton:polynomial_from_power_sums"),
    "arith.roots": ("repro.arith.roots:roots_among_candidates",
                    "repro.arith.roots:find_all_roots"),
    "arith.poly_divmod": ("repro.arith.polynomial:Poly.__divmod__",),
    "ids.identifier": ("repro.ids.identifiers:IdentifierFactory.identifier",),
}

#: Handlers registered with ``Host.add_handler``, by owning class.
HANDLER_SPANS = {"SenderConnection": "transport.sender_rx",
                 "ReceiverConnection": "transport.receiver_rx",
                 "ServerSidecar": "sidecar.server_rx",
                 "HostEmitterAgent": "sidecar.server_rx"}
#: Every tap registered with ``Router.add_tap``.
TAP_SPAN = "sidecar.tap_observe"


def resolve(target: str) -> tuple[object, str]:
    """``"module:Owner.attribute"`` -> (owner, attribute); the owner of a
    ``"module:function"`` target is the module."""
    module, _, qualified = target.partition(":")
    owner: object = importlib.import_module(module)
    *path, attribute = qualified.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attribute


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Recorder:
    """In-memory span store plus the list of patches to undo."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: (wrapper, original) of each module-level function.
        self._functions: list[tuple[object, object]] = []

    @property
    def enabled(self) -> bool:
        """True while the wrappers are installed."""
        return bool(self._patches or self._functions)

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, function):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        def span(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return span

    def clear(self) -> None:
        """Forget recorded spans (between runs); patches stay installed."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module, attribute: str, replacement) -> None:
        """Replace a module-level function wherever ``repro`` bound it
        (``from x import f`` copies the binding), under whatever name."""
        original = vars(module)[attribute]
        self._functions.append((replacement, original))
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)

    def install(self) -> None:
        """Wrap every span target; a recording starts with no spans."""
        if self.enabled:
            return
        self.clear()
        for name, targets in LAYERS.items():
            for target in targets:
                owner, attribute = resolve(target)
                span = self.wrap(name, vars(owner)[attribute])
                if isinstance(owner, type):
                    self._patch(owner, attribute, span)
                else:
                    self._patch_function(owner, attribute, span)
        # Handlers and taps are wrapped as the program registers them.
        node = importlib.import_module("repro.netsim.node")
        add_handler = vars(node.Host)["add_handler"]
        add_tap = vars(node.Router)["add_tap"]

        def traced_add_handler(host, kind, handler):
            owner = type(getattr(handler, "__self__", None)).__name__
            span = HANDLER_SPANS.get(owner)
            if span is not None:
                handler = self.wrap(span, handler)
            return add_handler(host, kind, handler)

        def traced_add_tap(router, tap):
            return add_tap(router, self.wrap(TAP_SPAN, tap))

        self._patch(node.Host, "add_handler", traced_add_handler)
        self._patch(node.Router, "add_tap", traced_add_tap)

    def remove(self) -> None:
        """Put every original back, also in a module first imported while
        the wrappers were in (its ``from x import f`` bound one)."""
        originals = {id(wrapper): original
                     for wrapper, original in self._functions}
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, key, originals[id(value)])
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self._functions.clear()

    # -- reading ----------------------------------------------------------

    def path_times(self) -> dict[tuple[str, ...], list]:
        """[calls, cumulative s, self s] per call path: the chain of span
        names from a root span down, built from the parent links."""
        paths: list[tuple[str, ...]] = []
        stats: dict[tuple[str, ...], list] = {}
        for index, name in enumerate(self.names):
            parent = self.parents[index]
            path = (paths[parent] if parent >= 0 else ()) + (name,)
            paths.append(path)
            duration = self.ends[index] - self.starts[index]
            stat = stats.setdefault(path, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration
            if parent >= 0:
                stats[paths[parent]][2] -= duration
        return stats

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, calls) per span name, as the benchmark reads."""
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for path, (count, _cum, own) in self.path_times().items():
            self_time[path[-1]] += own
            calls[path[-1]] += count
        return self_time, calls
