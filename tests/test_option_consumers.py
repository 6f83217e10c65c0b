"""Every option in the audited packages is set by somebody.

The sibling of ``tests/test_module_consumers.py``, one level down: where
that guard fails on a *module* nothing imports, this one fails on an
*option* nothing sets.  An option is a defaulted parameter of a public
callable (function, constructor, public method) or a defaulted field of
a dataclass -- each one doubles the configurations the tests would have
to cover, so one that every caller leaves alone should be a constant.

A call site sets an option by keyword, by position, through a
``dict(...)`` forwarded with ``**``, through a ``**kwargs`` wrapper that
forwards to the callable (a function, or a subclass constructor handing
its ``**options`` to ``super().__init__``), or as a key of a checked-in
sweep spec whose scenario names the callable as its entry point.  Inside
a class body ``super().__init__(...)`` is a call to each base and
``cls(...)`` a call to the class itself.  Call sites are read
from ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``; matching is
by the callable's bare name, so the audit errs towards counting an
option as set.  Dataclass *state* is not an option: declare it
``field(init=False)``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Packages held to the rule.  Grow this list (ROADMAP item 7 keeps the
#: count of unset options in the packages not yet on it).
AUDITED = ("repro.chaos", "repro.obs", "repro.quack", "repro.sidecar",
           "repro.arith", "repro.ids", "repro.netsim")

_ENTRY_POINT = ("keyword of a scenario entry point: the sweep-spec input "
                "format and the frozen benchmark's call surface")

#: ``"Callable.option": reason`` for options that must stay unset.
ALLOWED: dict[str, str] = {
    f"{entry}.{option}": _ENTRY_POINT
    for entry, options in {
        "run_ack_reduction": (
            "max_sim_seconds", "proxy_client_delay", "proxy_client_mbps",
            "quack_every", "server_proxy_delay", "server_proxy_mbps",
            "threshold"),
        "run_cc_division": ("max_sim_seconds", "threshold"),
        "run_retransmission": (
            "edge_mbps", "lossy_mbps", "max_sim_seconds", "p2_client_delay",
            "threshold"),
        "run_scale": ("batch_interval_s", "bits", "threshold", "tick_s"),
    }.items() for option in options}

CALL_SITE_ROOTS = ("src", "tests", "benchmarks", "examples")
SPEC_GLOBS = ("examples/sweeps/*.json",)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _signature(node: ast.FunctionDef, method: bool) \
        -> tuple[list[str], set[str]]:
    """``(positional parameter names, defaulted parameter names)``."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {arg.arg for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None}
    return (positional[1:] if method else positional), defaulted


def _dataclass_signature(node: ast.ClassDef) -> tuple[list[str], set[str]]:
    positional, defaulted = [], set()
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) \
                or not isinstance(statement.target, ast.Name) \
                or "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) \
                and getattr(value.func, "id", "") == "field" \
                and any(kw.arg == "init"
                        and getattr(kw.value, "value", True) is False
                        for kw in value.keywords):
            continue  # state, not an option
        positional.append(statement.target.id)
        if value is not None:
            defaulted.add(statement.target.id)
    return positional, defaulted


def audited_callables() -> dict[str, tuple[list[str], set[str]]]:
    """Public callables of the audited packages, by bare name.

    A class is listed under its own name (its constructor); a public
    method under ``Class.method``.
    """
    found: dict[str, tuple[list[str], set[str]]] = {}
    for package in AUDITED:
        for path in sorted((SRC / package.replace(".", "/")).rglob("*.py")):
            for node in _parse(path).body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_"):
                    found[node.name] = _signature(node, method=False)
                elif isinstance(node, ast.ClassDef) \
                        and not node.name.startswith("_"):
                    methods = {item.name: item for item in node.body
                               if isinstance(item, ast.FunctionDef)}
                    if _is_dataclass(node):
                        found[node.name] = _dataclass_signature(node)
                    elif "__init__" in methods:
                        found[node.name] = _signature(methods["__init__"],
                                                      method=True)
                    for name, item in methods.items():
                        if not name.startswith("_"):
                            found[f"{node.name}.{name}"] = \
                                _signature(item, method=True)
    return found


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", "")


def _dict_keys(node: ast.AST) -> set[str]:
    """Keys of a ``dict(a=..)`` call or a ``{"a": ..}`` literal."""
    if isinstance(node, ast.Call) and _callee(node) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg}
    if isinstance(node, ast.Dict):
        return {key.value for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)}
    return set()


def _is_super_init(node: ast.AST) -> bool:
    """Is ``node`` a ``super().__init__(...)`` call?"""
    return (isinstance(node, ast.Call) and _callee(node) == "__init__"
            and isinstance(node.func.value, ast.Call)
            and _callee(node.func.value) == "super")


def _forwards_to_super(init: ast.FunctionDef) -> bool:
    """Does ``__init__(.., **options)`` call ``super().__init__(**options)``?"""
    catch_all = init.args.kwarg.arg if init.args.kwarg else None
    return any(
        _is_super_init(call)
        and any(kw.arg is None and getattr(kw.value, "id", None) == catch_all
                for kw in call.keywords)
        for call in ast.walk(init))


def _spec_keywords() -> dict[str, set[str]]:
    """Entry-point name -> keys the checked-in sweep specs set on it."""
    from repro.sweep.scenarios import SCENARIOS

    found: dict[str, set[str]] = {}
    for pattern in SPEC_GLOBS:
        for path in sorted(REPO.glob(pattern)):
            spec = json.loads(path.read_text(encoding="utf-8"))
            entry = SCENARIOS[spec["scenario"]].entry.rpartition(":")[2]
            found.setdefault(entry, set()).update(
                spec.get("base", {}), spec.get("grid", {}))
    return found


def options_set() -> dict[str, set[str]]:
    """Callable name -> every option some call site sets on it."""
    callables = audited_callables()
    by_bare_name: dict[str, list[str]] = {}
    for name in callables:
        by_bare_name.setdefault(name.rpartition(".")[2], []).append(name)
    used: dict[str, set[str]] = {name: set() for name in callables}
    #: wrapper function name -> callees it hands its ``**kwargs`` to
    forwards: dict[str, set[str]] = {}
    calls: list[tuple[str, int, set[str]]] = []
    for root in CALL_SITE_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = _parse(path)
            dicts: dict[str, set[str]] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) \
                        and isinstance(node.targets[0], ast.Name):
                    dicts.setdefault(node.targets[0].id, set()).update(
                        _dict_keys(node.value))
                if isinstance(node, ast.FunctionDef) and node.args.kwarg:
                    catch_all = node.args.kwarg.arg
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call) and any(
                                kw.arg is None
                                and getattr(kw.value, "id", "") == catch_all
                                for kw in call.keywords):
                            forwards.setdefault(node.name, set()).add(
                                _callee(call))
                if isinstance(node, ast.ClassDef) and any(
                        isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"
                        and _forwards_to_super(item) for item in node.body):
                    # Constructing the subclass sets its bases' options.
                    forwards.setdefault(node.name, set()).update(
                        getattr(base, "id", "") for base in node.bases)
            #: call node -> the classes it constructs under another name
            aliased: dict[ast.Call, list[str]] = {}
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = [getattr(base, "id", "") for base in node.bases]
                for call in ast.walk(node):
                    if _is_super_init(call):
                        aliased[call] = bases
                    elif isinstance(call, ast.Call) and _callee(call) == "cls":
                        aliased[call] = [node.name]
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                keywords = {kw.arg for kw in node.keywords if kw.arg}
                for kw in node.keywords:
                    if kw.arg is None:
                        keywords |= _dict_keys(kw.value) \
                            | dicts.get(getattr(kw.value, "id", ""), set())
                calls += [(callee, len(node.args), keywords)
                          for callee in aliased.get(node, [_callee(node)])]
    calls += [(entry, 0, keys) for entry, keys in _spec_keywords().items()]

    def credit(callee: str, npositional: int, keywords: set[str],
               seen: frozenset = frozenset()) -> None:
        for name in by_bare_name.get(callee, ()):
            positional, _ = callables[name]
            used[name] |= keywords | set(positional[:npositional])
        for target in forwards.get(callee, ()):
            if target not in seen:
                credit(target, 0, keywords, seen | {callee})

    for callee, npositional, keywords in calls:
        credit(callee, npositional, keywords)
    return used


def unset_options() -> list[str]:
    used = options_set()
    return sorted(f"{name}.{option}"
                  for name, (_, defaulted) in audited_callables().items()
                  for option in defaulted - used[name])


def test_every_option_is_set_by_a_call_site():
    unset = unset_options()
    assert unset == sorted(ALLOWED), (
        "options no call site sets (make each a module constant, delete "
        f"it, or declare dataclass state field(init=False)): {unset}")


def test_the_audit_sees_options_and_call_sites():
    """Guards the guard: a parser change must not pass it vacuously."""
    callables = audited_callables()
    assert {"run_plan", "run_chaos_transfer", "ChaosSetup",
            "OverloadSpec", "LyingCountAdversary"} <= set(callables)
    assert "total_bytes" in callables["run_chaos_transfer"][1]
    used = options_set()
    assert "total_bytes" in used["run_chaos_transfer"]   # via run_plan(**)
    assert "plan" in used["run_plan"]                    # via sweep specs
    assert "max_flows" in used["OverloadSpec"]
    assert "checkpoints" in used["EmitterEndpoint"]      # via **options
    assert "kinds" in used["FaultInjector"]     # via super().__init__(kinds=)
    assert "_key" in used["Packet"]                      # via cls(...)
    assert len(ALLOWED) == 18
