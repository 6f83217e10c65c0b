"""Every scenario opens its run through one assembly (ROADMAP item 4)
on one assisted path (ROADMAP item 6).

``repro.transport.connection.Transfer`` builds the simulator, the
server -> routers -> client path and the connection pair, and restarts
the packet-uid sequence.  A second place that wires a path or restarts
the uids is a second assembly: this check fails on it.  Inside
``src/repro``, ``reset_packet_uids`` may be called only from
``Transfer``, ``build_path`` only from ``Transfer`` and from
``build_parallel_paths`` (which chains one path per proxy), and
``Transfer`` itself only from the builder of ``repro.sidecar.path``.

The sidecar agents of Table 1's protocols are built only by a row's
``attach``, so no protocol or harness wires its agents beside the rows.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED_CALLERS = {
    "reset_packet_uids": {"repro.transport.connection:Transfer.__init__"},
    "build_path": {"repro.transport.connection:Transfer.__init__",
                   "repro.netsim.topology:build_parallel_paths"},
    "Transfer": {"repro.sidecar.path:run_row"},
}

AGENTS = ("ServerSidecar", "ProxyEmitterTap", "PacingProxy",
          "SenderSideRetxProxy", "HostEmitterAgent", "FlowTableTap")

#: The rows' ``attach`` functions.
AGENT_SITES = {
    "repro.sidecar.cc_division:cc_division_row.attach",
    "repro.sidecar.ack_reduction:ack_reduction_row.attach",
    "repro.sidecar.retransmission:retransmission_row.attach",
    "repro.sidecar.path:canonical_row.attach",
}


def _callers(source: str, names) -> list[tuple[str, str]]:
    """``(called name, enclosing scope)`` for each call of one of ``names``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                if name in names:
                    found.append((name, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def _calls(names) -> dict[str, set[str]]:
    calls: dict[str, set[str]] = {name: set() for name in names}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for name, scope in _callers(path.read_text(encoding="utf-8"), names):
            calls[name].add(f"{module}:{scope}")
    return calls


def test_one_assembly_wires_paths_and_restarts_uids():
    assert _calls(ALLOWED_CALLERS) == ALLOWED_CALLERS


def test_agents_are_built_by_rows():
    calls = _calls(AGENTS)
    assert set().union(*calls.values()) == AGENT_SITES, calls
    assert calls["FlowTableTap"] == {"repro.sidecar.path:canonical_row.attach"}


def test_the_guard_sees_calls():
    """Guards the guard: a bare call, an attribute call and nested
    scopes are all seen, and other names are not."""
    source = ("reset_packet_uids()\n"
              "class C:\n"
              "    def f(self):\n"
              "        def g():\n"
              "            topology.build_path(sim, nodes, hops)\n"
              "        build_parallel_paths(sim, a, b, [], [])\n"
              "def run_row(row, overlay):\n"
              "    transfer = Transfer(row.total_bytes, row.routers, hops)\n"
              "def some_row():\n"
              "    def attach(transfer):\n"
              "        agents.ServerSidecar(sim, sender)\n"
              "        return MultipathTransfer(sim)\n")
    assert _callers(source, ALLOWED_CALLERS) == [
        ("reset_packet_uids", "<module>"), ("build_path", "C.f.g"),
        ("Transfer", "run_row")]
    assert _callers(source, AGENTS) == [("ServerSidecar", "some_row.attach")]
