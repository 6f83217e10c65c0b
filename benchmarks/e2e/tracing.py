"""Spans recorded from outside the program, at its layer boundaries.

``install`` replaces the public callables named in :data:`SPANS` with
timing wrappers and returns the recorder; ``Recorder.remove`` puts every
original back.  The program is never edited: a later change that adds
spans *inside* ``repro`` is a different change.

A span is (name, start, end, parent), kept in parallel lists in memory.
A layer's self time is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from repro.arith import newton, roots
from repro.arith.polynomial import Poly
from repro.ids.identifiers import IdentifierFactory
from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.quack import decoder, wire
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.cc_division import PacingProxy
from repro.sidecar.consumer import QuackConsumer
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.flowtable import FlowTable
from repro.transport.connection import SenderConnection
from repro.transport.ranges import RangeSet

#: span name <- (owner, attribute) of each public callable it wraps.
SPANS: dict[str, tuple[tuple[object, str], ...]] = {
    "netsim.run": ((Simulator, "run"),),
    "netsim.link_send": ((Link, "send"),),
    "netsim.node_receive": ((Host, "receive"), (Router, "receive")),
    "transport.sidecar_receipt": ((SenderConnection, "sidecar_receipt"),),
    "transport.sidecar_loss": ((SenderConnection, "sidecar_loss"),),
    "transport.rangeset_add": ((RangeSet, "add"), (RangeSet, "add_range")),
    "sidecar.tap_observe": ((PacingProxy, "on_packet"),),
    "sidecar.consumer_on_quack": ((QuackConsumer, "on_quack"),),
    "sidecar.consumer_record_send": ((QuackConsumer, "record_send"),),
    "sidecar.emitter_note": ((QuackEmitter, "note"),
                             (QuackEmitter, "observe")),
    "sidecar.emitter_emit": ((QuackEmitter, "emit"),),
    "sidecar.flowtable_admit": ((FlowTable, "admit"),),
    "sidecar.flowtable_observe": ((FlowTable, "observe"),),
    "sidecar.flowtable_flush": ((FlowTable, "flush"),),
    "sidecar.flowtable_close_flow": ((FlowTable, "close_flow"),),
    "quack.insert": ((PowerSumQuack, "insert"),),
    "quack.remove": ((PowerSumQuack, "remove"),),
    "quack.insert_many": ((PowerSumQuack, "insert_many"),),
    "quack.sub": ((PowerSumQuack, "__sub__"),),
    "quack.decode_delta": ((decoder, "decode_delta"),),
    "quack.wire_encode": ((wire, "encode"),),
    "quack.wire_decode": ((wire, "decode"),),
    "arith.newton": ((newton, "power_sums_to_elementary"),
                     (newton, "polynomial_from_power_sums")),
    "arith.roots": ((roots, "roots_among_candidates"),
                    (roots, "find_all_roots")),
    "arith.poly_divmod": ((Poly, "__divmod__"),),
    "ids.identifier": ((IdentifierFactory, "identifier"),),
}

#: Spans around callables the program registers at run time: the handler
#: passed to ``Host.add_handler``, by the class that owns it, and every
#: tap passed to ``Router.add_tap``.
HANDLER_SPANS = {"SenderConnection": "transport.sender_rx",
                 "ReceiverConnection": "transport.receiver_rx",
                 "ServerSidecar": "sidecar.server_rx",
                 "HostEmitterAgent": "sidecar.server_rx"}
TAP_SPAN = "sidecar.tap_observe"

SPAN_NAMES = tuple(sorted(set(SPANS) | set(HANDLER_SPANS.values())))


class Recorder:
    """In-memory span store plus the list of patches to undo."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: Objects seen at a boundary, for reading their counters after
        #: the pass (the scenario entry points do not return them).
        self.simulators: dict[int, Simulator] = {}
        self.links: dict[int, Link] = {}
        self.wire_bytes = 0
        self.decoded_missing = 0

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, function, after=None):
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
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        span.bench_span = name
        return span

    def clear(self) -> None:
        """Forget recorded spans and counters; patches stay installed."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        self.simulators.clear()
        self.links.clear()
        self.wire_bytes = self.decoded_missing = 0

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module, attribute: str, replacement) -> None:
        """Replace a module-level function wherever ``repro`` bound it.

        ``from x import f`` copies the binding at import time, so the
        function is replaced in every loaded ``repro`` module that holds
        the same object, under whatever name.
        """
        original = vars(module)[attribute]
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, replacement)

    def install(self) -> None:
        hooks = {
            (Simulator, "run"):
                lambda args, _r: self.simulators.setdefault(id(args[0]),
                                                            args[0]),
            (Link, "send"):
                lambda args, _r: self.links.setdefault(id(args[0]), args[0]),
            (wire, "encode"): self._count_wire_bytes,
            (decoder, "decode_delta"): self._count_missing,
        }
        for name, targets in SPANS.items():
            for owner, attribute in targets:
                span = self.wrap(name, vars(owner)[attribute],
                                 hooks.get((owner, attribute)))
                if isinstance(owner, type):
                    self._patch(owner, attribute, span)
                else:
                    self._patch_function(owner, attribute, span)

        add_handler = vars(Host)["add_handler"]
        add_tap = vars(Router)["add_tap"]
        recorder = self

        def traced_add_handler(host, kind, handler):
            owner = type(getattr(handler, "__self__", None)).__name__
            span = HANDLER_SPANS.get(owner)
            if span is not None:
                handler = recorder.wrap(span, handler)
            return add_handler(host, kind, handler)

        def traced_add_tap(router, tap):
            return add_tap(router, recorder.wrap(TAP_SPAN, tap))

        for owner, attribute, replacement in (
                (Host, "add_handler", traced_add_handler),
                (Router, "add_tap", traced_add_tap)):
            replacement.bench_span = attribute
            self._patch(owner, attribute, replacement)

    def _count_wire_bytes(self, _args, frame) -> None:
        self.wire_bytes += len(frame)

    def _count_missing(self, _args, result) -> None:
        self.decoded_missing += len(result.missing)

    def remove(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        for owner, attribute, original in self._patches:
            if vars(owner)[attribute] is not original:
                raise RuntimeError(
                    f"{owner!r}.{attribute} was not restored")
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, calls) per span name."""
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names, parents = self.names, self.parents
        for index, name in enumerate(names):
            duration = self.ends[index] - self.starts[index]
            calls[name] += 1
            self_time[name] += duration
            parent = parents[index]
            if parent >= 0:
                self_time[names[parent]] -= duration
        return self_time, calls

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": index, "name": name, "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index]}) + "\n")


def any_installed() -> list[str]:
    """Names of patch targets that currently hold a wrapper (should be
    none outside a traced pass)."""
    targets = [target for group in SPANS.values() for target in group]
    targets += [(Host, "add_handler"), (Router, "add_tap")]
    return [f"{owner.__name__}.{attribute}" for owner, attribute in targets
            if hasattr(vars(owner)[attribute], "bench_span")]
