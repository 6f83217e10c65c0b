"""One import path per name: a name is imported from the module that
defines it.

The sibling of ``tests/test_module_consumers.py``.  A package
``__init__`` holds its docstring and whatever it defines itself (only
``repro.obs`` defines anything: the process-wide singletons and their
switches); it re-exports nothing.  So ``from repro.<package> import
name`` is legal only when ``name`` is a submodule of the package or is
defined in its ``__init__``, and importing one module loads only that
module, its packages and what it imports itself.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Where importers are read from.  ``benchmarks/e2e/`` is the frozen
#: benchmark and imports only ``repro.obs`` and submodules.
IMPORTER_ROOTS = ("src", "tests", "examples", "benchmarks")
FROZEN = REPO / "benchmarks" / "e2e"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _packages() -> dict[str, Path]:
    """Dotted package name -> its directory."""
    return {".".join(init.parent.relative_to(SRC).parts): init.parent
            for init in SRC.rglob("__init__.py")}


def _children(directory: Path) -> set[str]:
    """Submodules and subpackages of a package directory."""
    return ({path.stem for path in directory.glob("*.py")}
            | {path.name for path in directory.iterdir()
               if (path / "__init__.py").exists()}) - {"__init__"}


def _defined(tree: ast.Module) -> set[str]:
    """Names a module binds at top level other than by importing them."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {target.id for target in targets
                      if isinstance(target, ast.Name)}
    return names


def _importable() -> dict[str, set[str]]:
    """Package -> the names ``from package import name`` may read."""
    return {package: _children(directory)
            | _defined(_parse(directory / "__init__.py"))
            for package, directory in _packages().items()}


def test_package_inits_reexport_nothing():
    """No ``__init__`` assigns ``__all__`` or imports from ``repro`` a
    name its own code does not load."""
    problems = []
    for package, directory in sorted(_packages().items()):
        tree = _parse(directory / "__init__.py")
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        if "__all__" in _defined(tree):
            problems.append(f"{package}: assigns __all__")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").partition(".")[0] == "repro":
                problems += [f"{package}: re-exports {alias.name} from "
                             f"{node.module}" for alias in node.names
                             if (alias.asname or alias.name) not in loaded]
            elif isinstance(node, ast.Import):
                problems += [f"{package}: re-exports {alias.name}"
                             for alias in node.names
                             if alias.name.partition(".")[0] == "repro"
                             and (alias.asname or alias.name
                                  .partition(".")[0]) not in loaded]
    assert problems == [], problems


def test_importers_name_the_defining_module():
    """``from repro.<package> import name`` reads a submodule or a name
    the package's ``__init__`` defines, and so does ``package.name``
    after ``from repro import package``."""
    importable = _importable()
    problems = []
    for root in IMPORTER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if FROZEN in path.parents:
                continue
            where = path.relative_to(REPO)
            tree = _parse(path)
            bound: dict[str, str] = {}  # local name -> package
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module in importable):
                    continue
                for alias in node.names:
                    if alias.name not in importable[node.module]:
                        problems.append(f"{where}:{node.lineno} from "
                                        f"{node.module} import {alias.name}")
                    qualified = f"{node.module}.{alias.name}"
                    if qualified in importable:
                        bound[alias.asname or alias.name] = qualified
            problems += [
                f"{where}:{node.lineno} {node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and not node.attr.startswith("__")
                and node.attr not in importable[bound[node.value.id]]]
    assert problems == [], problems


def _loaded(module: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after importing
    ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}\n"
         "print(*sorted(name for name in sys.modules\n"
         "              if name.partition('.')[0] == 'repro'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_a_module_loads_only_what_it_imports():
    """``repro.sidecar.accounting`` imports nothing from ``repro`` at
    module level, so a fresh interpreter that imports it loads its two
    packages and itself (it loaded 62 ``repro`` modules when the
    packages re-exported their contents)."""
    assert _loaded("repro.sidecar.accounting") == {
        "repro", "repro.sidecar", "repro.sidecar.accounting"}


@pytest.mark.parametrize("module", ["repro.sidecar.cc_division",
                                    "repro.sidecar.ack_reduction",
                                    "repro.sidecar.retransmission"])
def test_a_protocol_row_loads_no_harness(module):
    """The frozen benchmark imports the three protocol modules at launch
    (``setup_s`` times it): their rows' builder must not pull in the
    chaos harness or the trace runner."""
    loaded = _loaded(module)
    assert module in loaded
    assert sorted(name for name in loaded if name == "repro.chaos"
                  or name.startswith("repro.chaos.")
                  or name == "repro.obs.runner") == []
