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


WRITER_CALLS = {("os", name) for name in ("replace", "rename", "fdopen", "unlink", "remove")}
WRITE_METHODS = {"write_text", "write_bytes", "touch", "unlink", "tofile"}
PATH_MOVES = {"rename", "replace"}  # Path methods take one argument; str.replace takes two
NUMPY_SAVES = {"save", "savez", "savez_compressed", "savetxt"}
MODE_LETTERS = set("rwxabt+")


def _is_bytes_io(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "BytesIO"


def file_writes(tree: ast.Module) -> list[tuple[str, str]]:
    """(scope, call) for each call that writes, renames or removes a file
    behind the package's writer: any ``tempfile`` function, an ``os`` call in
    WRITER_CALLS, a method in WRITE_METHODS, a ``rename`` or ``replace``
    method given one argument, a numpy save unless its first argument is a
    name the same scope bound to a ``BytesIO``, and an ``open`` function or
    method given a literal mode with ``w``, ``x`` or ``a``. A literal counts
    as a mode when it is the ``mode`` keyword or one of the first two
    arguments and holds only mode letters."""
    found = []

    def writes(call: ast.Call, buffers: set[str]) -> str | None:
        func = call.func
        owner = getattr(func, "value", None)
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        module = getattr(owner, "id", None)
        if module == "tempfile" or (module, name) in WRITER_CALLS:
            return f"{module}.{name}"
        if module in ("np", "numpy") and name in NUMPY_SAVES:
            target = call.args[0] if call.args else None
            return None if isinstance(target, ast.Name) and target.id in buffers else f"{module}.{name}"
        if isinstance(func, ast.Attribute) and (
            name in WRITE_METHODS or (name in PATH_MOVES and len(call.args) + len(call.keywords) == 1)
        ):
            return f".{name}"
        if name == "open":
            args = [*call.args[:2], *(kw.value for kw in call.keywords if kw.arg == "mode")]
            modes = [arg.value for arg in args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                     and arg.value and set(arg.value) <= MODE_LETTERS and set(arg.value) & set("wxa")]
            if modes:
                return f"open({modes[0]!r})"
        return None

    def visit(node: ast.AST, scope: str, buffers: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."), set())
                continue
            if isinstance(child, ast.Assign) and _is_bytes_io(child.value):
                buffers.update(t.id for t in child.targets if isinstance(t, ast.Name))
            elif isinstance(child, ast.withitem) and _is_bytes_io(child.context_expr):
                if isinstance(child.optional_vars, ast.Name):
                    buffers.add(child.optional_vars.id)
            elif isinstance(child, ast.Call) and (call := writes(child, buffers)):
                found.append((scope or "<module>", call))
            visit(child, scope, buffers)

    visit(tree, "", set())
    return found


def test_file_writes_finds_each_writing_call_by_its_scope():
    tree = ast.parse(
        "import io, os, tempfile\n"
        "import numpy as np\n"
        "open('log.txt', 'a').close()\n"
        "def read(path):\n"
        "    with open(path) as fh, path.open(encoding='utf-8') as gh, open(path, 'rb') as bh:\n"
        "        return fh.read() + gh.read() + str(bh.read()) + 'a.b'.replace('a', 'x')\n"
        "def render(vec):\n"
        "    buffer = io.BytesIO()\n"
        "    np.save(buffer, vec)\n"
        "    with io.BytesIO() as fh:\n"
        "        np.savez(fh, vec=vec)\n"
        "    return buffer.getvalue()\n"
        "class Cache:\n"
        "    def store(self, path, data):\n"
        "        fd, tmp = tempfile.mkstemp()\n"
        "        with os.fdopen(fd, 'wb') as fh:\n"
        "            fh.write(data)\n"
        "        os.replace(tmp, path)\n"
        "    def drop(self, path, text):\n"
        "        path.write_text(text)\n"
        "        with path.open(mode='x', encoding='utf-8') as fh, gzip.open(path, 'wt') as gh:\n"
        "            os.unlink(path)\n"
        "    def save(self, key, vec):\n"
        "        np.save(self.cache_dir / f'{key}.npy', vec)\n"
        "        np.save(buffer, vec)\n"
        "        vec.tofile(self.cache_dir / key)\n"
        "    def evict(self, path, other):\n"
        "        os.remove(path)\n"
        "        path.unlink(missing_ok=True)\n"
        "        path.replace(other)\n"
        "        path.rename(other)\n"
        "        other.touch()\n"
    )
    assert file_writes(tree) == [
        ("<module>", "open('a')"),
        ("Cache.store", "tempfile.mkstemp"),
        ("Cache.store", "os.fdopen"),
        ("Cache.store", "os.replace"),
        ("Cache.drop", ".write_text"),
        ("Cache.drop", "open('x')"),
        ("Cache.drop", "open('wt')"),
        ("Cache.drop", "os.unlink"),
        ("Cache.save", "np.save"),
        ("Cache.save", "np.save"),  # a buffer bound in another scope does not count
        ("Cache.save", ".tofile"),
        ("Cache.evict", "os.remove"),
        ("Cache.evict", ".unlink"),
        ("Cache.evict", ".replace"),
        ("Cache.evict", ".rename"),
        ("Cache.evict", ".touch"),
    ]


def test_only_write_atomic_writes_files():
    """``registry.write_atomic`` is the package's one file writer: it alone
    makes temporary files, renames them into place and cleans them up, so
    every output, the embedding cache included, is written whole or not at
    all and fails with one DataError message."""
    writes = sorted(
        (str(path.relative_to(ROOT / "src")), scope)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for scope, _ in file_writes(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert writes
    assert set(writes) == {("taxonav/registry.py", "write_atomic")}
