"""Every function, method, property and class in ``src/repro`` is named by
runtime code (ROADMAP north star).

The sibling of ``tests/test_module_consumers.py`` one level down: where
that guard fails on a *module* nothing imports, this one fails on a
*definition* nothing names.  A definition counts as consumed when its
name appears in a file under ``src/``, ``benchmarks/`` or ``examples/``,
or in a checked-in sweep spec, anywhere but at its own ``def`` /
``class`` line:

* as a name or an attribute (``build_path(...)``, ``self.cc.on_ack``);
* as an imported name or its alias;
* as an identifier string: a string constant made of identifiers joined
  by ``.`` or ``:``, which covers the ``getattr`` targets
  (``getattr(self.cc, "pacing_rate_bps", None)``) and the
  ``"module:Owner.attr"`` targets of ``repro.obs.layers`` and
  ``repro.sweep.scenarios``.

Matching is by bare name, so the audit errs towards counting a
definition as consumed: a method is credited by any attribute of its
name.  Dunder methods are called by the interpreter and are not audited.
Tests do not count: a definition only its own tests call is the surface
this check exists to catch.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RUNTIME_ROOTS = ("src", "benchmarks", "examples")
SPEC_GLOBS = ("examples/sweeps/*.json",)

_IDENTIFIER_STRING = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*\Z")

_ORACLE = "read by the link and sender differential oracles"
_OBSERVED = "state the tests observe on a runtime object"

#: ``"module:Qualified.name": reason`` for definitions only tests name.
ALLOWED: dict[str, str] = {
    "repro.arith.newton:elementary_to_power_sums": (
        "the round-trip oracle for Newton's identities"),
    "repro.arith.polynomial:Poly.from_roots": (
        "builds the polynomials the root finders are checked on"),
    "repro.netsim.link:Link.queue_depth": _ORACLE,
    "repro.netsim.sched:Timer.next_fire_time": _ORACLE,
    "repro.transport.ranges:RangeSet.max_value": _ORACLE,
    "repro.netsim.loss:GilbertElliottLoss.steady_state_loss_rate": (
        'checks the tuning of make_loss_model("bursty")'),
    "repro.netsim.loss:DeterministicLoss": (
        "test fake: drops exactly the packet ordinals a test names"),
    "repro.transport.cc.fixed:FixedWindow": (
        "test fake: a congestion window that never moves"),
    "repro.quack.base:DecodeResult.is_determinate": _OBSERVED,
    "repro.sidecar.cc_division:PacingProxy.buffer_depth": _OBSERVED,
    "repro.sidecar.flowtable:FlowTable.tenant_bank_bytes": _OBSERVED,
    "repro.transport.cc.bbr:BbrLite.mode": _OBSERVED,
    "repro.transport.cc.bbr:BbrLite.min_rtt_estimate": _OBSERVED,
    "repro.transport.connection:SenderConnection.paused": _OBSERVED,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def definitions(root: Path = REPO) -> dict[str, str]:
    """``"module:Qualified.name"`` -> bare name, for every function,
    method, property and class under ``root/src`` (dunders excepted)."""
    src = root / "src"
    found: dict[str, str] = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[f"{module}:{prefix}{name}"] = name
                visit(child, module, f"{prefix}{name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(_parse(path), module, "")
    return found


def _identifier_parts(text: str) -> list[str]:
    return re.split(r"[.:]", text) if _IDENTIFIER_STRING.match(text) else []


def names_used(tree: ast.AST) -> dict[str, set[str]]:
    """Bare name -> the forms (``name``, ``attribute``, ``import``,
    ``string``) in which ``tree`` uses it."""
    used: dict[str, set[str]] = {}

    def add(name: str, form: str) -> None:
        used.setdefault(name, set()).add(form)

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            add(node.id, "name")
        elif isinstance(node, ast.Attribute):
            add(node.attr, "attribute")
        elif isinstance(node, ast.alias):
            for name in node.name.split(".") + [node.asname or ""]:
                if name:
                    add(name, "import")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name in _identifier_parts(node.value):
                add(name, "string")
    return used


def _spec_strings(value) -> list[str]:
    if isinstance(value, dict):
        return [text for key, item in value.items()
                for text in [key, *_spec_strings(item)]]
    if isinstance(value, list):
        return [text for item in value for text in _spec_strings(item)]
    return [value] if isinstance(value, str) else []


def runtime_names(root: Path = REPO) -> dict[str, set[str]]:
    """Bare name -> the runtime files (relative to ``root``) naming it."""
    files: dict[str, set[str]] = {}
    for top in RUNTIME_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            where = path.relative_to(root).as_posix()
            for name in names_used(_parse(path)):
                files.setdefault(name, set()).add(where)
    for pattern in SPEC_GLOBS:
        for path in sorted(root.glob(pattern)):
            where = path.relative_to(root).as_posix()
            spec = json.loads(path.read_text(encoding="utf-8"))
            for text in _spec_strings(spec):
                for name in _identifier_parts(text):
                    files.setdefault(name, set()).add(where)
    return files


def unconsumed(root: Path = REPO) -> list[str]:
    names = runtime_names(root)
    return sorted(key for key, name in definitions(root).items()
                  if name not in names)


def test_every_definition_has_a_runtime_consumer():
    flagged = unconsumed()
    assert flagged == sorted(ALLOWED), (
        "definitions no runtime file names, against the allowed list: "
        "delete each with the tests that only check it, give it a runtime "
        "caller, or allow it with a reason; drop allowed entries that now "
        f"have a caller.  Flagged: {flagged}")


def test_the_audit_sees_runtime_uses(tmp_path):
    """Guards the guard: a scan that stops crediting a form of use, or
    stops flagging a definition, must not pass vacuously."""
    connection = names_used(_parse(
        REPO / "src/repro/transport/connection.py"))
    assert "string" in connection["pacing_rate_bps"]     # getattr target
    layers = names_used(_parse(REPO / "src/repro/obs/layers.py"))
    assert layers["note"] == {"string"}        # QuackEmitter.note in LAYERS
    assert runtime_names()["build_parallel_paths"] \
        == {"examples/multipath_demo.py"}
    kept = definitions()
    for key in ("repro.transport.cc.bbr:BbrLite.pacing_rate_bps",
                "repro.sidecar.emitter:QuackEmitter.note",
                "repro.netsim.topology:build_parallel_paths"):
        assert key in kept and key not in unconsumed()

    # A planted tree: one definition a runtime file calls, one only a
    # test calls, one only a string names.
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/mod.py").write_text(
        "class Box:\n"
        "    def used(self):\n        pass\n"
        "    def planted(self):\n        pass\n"
        "def by_name():\n    pass\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples/demo.py").write_text(
        "from repro.mod import Box\n"
        "Box().used()\n"
        "getattr(Box, 'by_name')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests/test_mod.py").write_text(
        "from repro.mod import Box\nBox().planted()\n")
    assert unconsumed(tmp_path) == ["repro.mod:Box.planted"]
