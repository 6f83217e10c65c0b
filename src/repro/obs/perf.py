"""The time section and the flamegraph of a traced run.

``repro trace`` runs a scenario with the layer recorder
(:mod:`repro.obs.layers`) installed, and :func:`repro.obs.runner.run_traced`
keeps two things when the run ends: the recorder's ``path_times()`` --
``[calls, cumulative s, self s]`` per call path, a tuple of span names
from the root down -- and the middlebox ledger.  This module reads them:

* :func:`profile_items` folds them into the **time** section of ``repro
  trace``'s report, one row per layer;
* :func:`render_folded` turns the call paths into collapsed-stack
  ("folded") text -- one ``run;netsim.run;... weight`` line per call
  path, weighted by **self time in microseconds** -- the input format of
  every flamegraph renderer (``flamegraph.pl``, speedscope, inferno).

Comparing the timings of two builds is the repo benchmark's job
(``benchmarks/e2e/compare.py``); comparing the virtual-time telemetry
of two runs is ``repro slo --against``'s.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from repro.obs.analyze import Table

#: The simulator's dispatch loop: its self time is event dispatch plus
#: the timer callbacks no layer covers, so it counts as unattributed.
DISPATCH_SPAN = "netsim.run"

#: ``Recorder.path_times()``: call path -> ``[calls, cum s, self s]``.
PathTimes = Mapping[tuple[str, ...], Sequence]


def render_folded(path_times: PathTimes) -> str:
    """Collapsed-stack text: ``a;b;c <self-time-microseconds>`` lines.

    Weights are integer self-time microseconds (flamegraph renderers
    want integers); zero-weight paths are omitted.  Lines are sorted,
    so the output is deterministic for a deterministic profile.
    """
    lines = []
    for path, (_calls, _cum_s, self_s) in path_times.items():
        weight = int(round(float(self_s) * 1e6))
        if weight > 0:
            lines.append(f"{';'.join(path)} {weight}")
    return "\n".join(sorted(lines))


def profile_items(path_times: PathTimes, flows: Mapping, root: str) -> list:
    """A run's call paths and per-flow ledger as report items: the wall
    time (the ``root`` span's), the share of it inside a layer other
    than the simulator's dispatch loop -- the benchmark's
    ``trace.attributed_share`` -- every layer by self time, and the
    middlebox ledger (``flows``: flow -> counters)."""
    layers: dict[str, list] = {}        # name -> [self seconds, calls]
    wall = 0.0
    for path, (calls, cum_s, self_s) in sorted(path_times.items()):
        if path == (root,):
            wall = float(cum_s)
            continue
        row = layers.setdefault(path[-1], [0.0, 0])
        row[0] += float(self_s)
        row[1] += int(calls)
    items: list = []
    if wall > 0:
        attributed = sum(seconds for name, (seconds, _) in layers.items()
                         if name != DISPATCH_SPAN)
        items.append(
            f"wall clock: {wall * 1e3:.1f} ms, {attributed / wall:.1%} "
            f"inside a layer other than {DISPATCH_SPAN}")
    ranked = sorted(layers.items(), key=lambda item: (-item[1][0], item[0]))
    if ranked:
        items.append(Table(
            "layers by self time", ("self ms", "of wall", "calls", "layer"),
            [(f"{seconds * 1e3:.3f}",
              f"{seconds / wall:.1%}" if wall > 0 else "-", str(calls), name)
             for name, (seconds, calls) in ranked]))
    else:
        items.append("(no spans recorded)")
    if flows:
        items.append(Table(
            "middlebox ledger",
            ("flow", "observed", "frames", "emitted B", "bank B"),
            [(flow, *(str(flows[flow][key]) for key in (
                "observed", "frames_emitted", "bytes_emitted",
                "bank_bytes"))) for flow in sorted(flows)]))
    return items


def write_folded(path_times: PathTimes, path: str) -> str:
    """Persist the collapsed-stack form; returns the path."""
    text = render_folded(path_times)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + ("\n" if text else ""))
    return path
