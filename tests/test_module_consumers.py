"""Every module in ``src/repro`` has a runtime consumer (ROADMAP north star).

A module counts as consumed when a file under ``src/``, ``benchmarks/``
or ``examples/`` imports it -- directly, or by importing from a package a
name that the package's ``__init__`` re-exports from it.  A re-export on
its own is not a use: an ``__init__`` only counts as a consumer of the
names it actually loads (``FLIGHT = FlightRecorder()``).  Tests do not
count: a module only its own tests exercise is the dead code this check
exists to catch.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Run by the interpreter / the console script, not imported.
ENTRY_POINTS = {"repro.__main__"}

#: Modules with no consumer yet, each with the reason it is still here.
#: Empty since the reordering link model moved to ``tests/netsim/``;
#: keep it that way (ROADMAP item 6).
KNOWN_ORPHANS: dict[str, str] = {}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> list[tuple[str, str, str]]:
    """``(base module, imported name or "", bound name)`` per import."""
    package: tuple[str, ...] = ()
    if SRC in path.parents:
        package = path.relative_to(SRC).parts[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, "", (alias.asname or alias.name)
                       .partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ((base,) if base else ()))
            found += [(base, alias.name, alias.asname or alias.name)
                      for alias in node.names]
    return found


def _loaded_names(path: Path) -> set[str]:
    return {node.id
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_module_has_a_consumer():
    files = {path: _module_name(path) for path in SRC.rglob("*.py")}
    modules = set(files.values())
    #: package -> {re-exported name: module (or package) it came from}
    exports = {files[path]: {bound: base for base, name, bound
                             in _imports(path) if name and base in modules}
               for path in files if path.name == "__init__.py"}

    def origin(base: str, name: str) -> str | None:
        """The module ``from base import name`` ultimately reads."""
        if f"{base}.{name}" in modules:
            return f"{base}.{name}"
        source = exports.get(base, {}).get(name)
        if source is None:  # defined in ``base`` itself
            return base if base in modules else None
        if source in exports and source != base:  # through a package
            return origin(source, name)
        return source

    consumers: dict[str, set[Path]] = {name: set() for name in modules}
    importers = list(files) + [
        path for root in ("benchmarks", "examples")
        for path in (REPO / root).rglob("*.py")]
    for path in importers:
        reexporter = path.name == "__init__.py"
        loaded = _loaded_names(path) if reexporter else set()
        for base, name, bound in _imports(path):
            module = origin(base, name) if name else \
                base if base in modules else None
            if module is None or module == files.get(path):
                continue
            if reexporter and bound not in loaded:
                continue
            consumers[module].add(path)

    orphans = sorted(name for path, name in files.items()
                     if path.name != "__init__.py"
                     and name not in ENTRY_POINTS
                     and not consumers[name])
    assert orphans == sorted(KNOWN_ORPHANS), (
        "modules nothing but their tests and package re-exports import "
        f"(expected exactly the known ones): {orphans}")


def test_the_receiving_role_is_written_once():
    """Table 1's *receives quACKs* role is one class
    (``sidecar.agents.ConsumerEndpoint``): in ``src/repro/sidecar`` the
    log is constructed, a quACK decoded against it and the reset
    machine instantiated at one site each.  A second site is a copy of
    the intake growing back in a protocol module."""
    sites: dict[str, list[str]] = {
        "QuackConsumer": [], "on_quack": [], "ResetInitiator": []}
    for path in sorted((SRC / "repro" / "sidecar").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", "")
            if name in sites:
                sites[name].append(f"{path.name}:{node.lineno}")
    assert {name: len(found) for name, found in sites.items()} == {
        "QuackConsumer": 1, "on_quack": 1, "ResetInitiator": 1}, sites


def test_the_sender_folds_at_one_site():
    """``QuackConsumer`` folds an identifier it sent when a quACK moves
    the boundary over it, and nowhere else: ``sidecar/consumer.py``
    calls ``.insert(`` / ``.insert_many(`` in one function, and that
    function is not ``record_send``.  A second site is the second
    accumulator growing back."""
    tree = ast.parse((SRC / "repro" / "sidecar" / "consumer.py")
                     .read_text(encoding="utf-8"))
    folding = {function.name
               for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("insert", "insert_many")}
    assert folding == {"_head_at"}
