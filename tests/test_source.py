"""Static checks over the package and script sources."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

from taxonav.gateway import LlmGateway

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (``__future__`` features aside) that it never
    reads as a bare name, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_a_module_never_reads():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from json import dumps, loads as read\n"
        "def f(x: dumps) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(tree) == ["system", "read"]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    unused = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_every_name_perfbench_traces_is_its_owners_own_attribute(monkeypatch):
    """perfbench/spans.py wraps each traced name it finds in its owner's own
    namespace, so a traced name that is deleted or inherited breaks the
    traced bench run; this catches it without running the bench."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up here
    spec.loader.exec_module(spans)
    traced = [(owner, attr) for owner, attr, _, _ in spans.TRACED]
    traced.append((LlmGateway, "run_parallel"))
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in traced if attr not in vars(owner)
    ]
    assert len(traced) > 1
    assert missing == []


THREAD_STARTERS = {"Thread", "ThreadPoolExecutor"}


def thread_starts(tree: ast.Module) -> list[str]:
    """The qualified name of the function around each call of a class named
    in THREAD_STARTERS, as a bare name or as a module attribute."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in THREAD_STARTERS:
                    found.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_thread_starts_finds_each_call_by_its_scope():
    tree = ast.parse(
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "threading.Thread(target=print).start()\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return ThreadPoolExecutor(2)\n"
        "        return threading.Thread(target=g)\n"
    )
    assert thread_starts(tree) == ["<module>", "A.f.g", "A.f"]


def test_only_the_gateway_pool_and_the_eval_client_pool_start_threads():
    """The gateway's pool is the one place that runs a map's helpers, and
    ``evaluate``'s client pool runs queries whose calls all go through a
    gateway. A thread or pool started anywhere else would be concurrency
    that neither accounts for."""
    starts = sorted(
        (str(path.relative_to(ROOT / "src")), scope)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for scope in thread_starts(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert starts == [
        ("taxonav/eval_harness.py", "evaluate"),
        ("taxonav/gateway.py", "LlmGateway._helpers"),
    ]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calling_closures(tree: ast.Module) -> list[str]:
    """The qualified name of each function defined inside another function
    that calls itself by name. Such a function holds itself through its own
    closure, so it and every variable it closes over outlive their last
    reference until the cyclic collector runs."""
    found = []

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                name = f"{scope}.{child.name}".lstrip(".")
                if in_function and isinstance(child, FUNCTIONS) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == child.name
                    for call in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name, isinstance(child, FUNCTIONS))
                continue
            visit(child, scope, in_function)

    visit(tree, "", False)
    return found


def test_self_calling_closures_finds_only_nested_functions_that_call_themselves():
    tree = ast.parse(
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "def outer(items):\n"
        "    def walk(item):\n"
        "        return [walk(i) for i in item]\n"
        "    def once(item):\n"
        "        return len(item)\n"
        "    class Local:\n"
        "        def again(self):\n"
        "            return again()\n"
        "    return walk(items)\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g(n):\n"
        "            return self.f() if n else g(n - 1)\n"
        "        return g\n"
    )
    assert self_calling_closures(tree) == ["outer.walk", "A.f.g"]


def test_no_nested_function_calls_itself():
    """A tree built by a self-calling closure lives until the cyclic
    collector runs; a recursive helper is written at module level instead."""
    found = [
        (str(path.relative_to(ROOT / "src")), scope)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for scope in self_calling_closures(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
