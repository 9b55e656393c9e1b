#!/usr/bin/env python3
"""List every function-body statement under src/ that the test suite never runs.

Runs tier-1 (pytest over tests/) in this process under a stdlib trace hook,
``sys.settrace`` for the main thread and ``threading.settrace`` for the
threads it starts. The hook is installed again before each test, because
hypothesis replaces it while it runs a test. Hypothesis runs with a fixed
seed and no deadline, so the statements reached do not depend on the draw
or on how much slower the hook makes each example.

A statement counts as run when any line of it produced a line event: for a
compound statement (if, for, while, with, def, ...) any line of its header,
decorators included, so a condition or a call written over several lines
counts at its first evaluated line. Docstrings, constant expressions,
``global``/``nonlocal`` and ``try`` headers make no line event and are not
statements here; module and class bodies are not function bodies.

Each never-run statement is printed as ``path:line: function: first line``.
Exits 1 if any statement never ran or if the suite itself failed; exits 0
otherwise. There are no exceptions: a statement no test reaches gets a test
or goes. The hook makes the suite two to three times slower than a plain run.

    PYTHONPATH=src python3 scripts/probe_statements.py
"""

from __future__ import annotations

import ast
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# statements that compile to no line event of their own
SILENT = (ast.Try, ast.Global, ast.Nonlocal) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Statement:
    file: str  # relative to src/
    function: str  # qualified name of the function whose body holds it
    line: int
    lines: range  # any line event in here means it ran
    text: str  # its first line, stripped


def _first_line(node: ast.AST) -> int:
    """A statement's first line, its decorators included."""
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _header_end(stmt: ast.stmt) -> int:
    """The last line of a compound statement's header, or of a simple statement."""
    first = getattr(stmt, "body", None) or getattr(stmt, "cases", None)
    if first:
        inner = first[0].pattern if isinstance(first[0], ast.match_case) else first[0]
        return max(stmt.lineno, _first_line(inner) - 1)
    return stmt.end_lineno


def _is_constant(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def function_statements(path: Path) -> list[Statement]:
    """Every statement in the body of every function of one source file,
    nested blocks and nested functions included, in source order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rel = str(path.relative_to(SRC))
    found: list[Statement] = []

    def scope(body: list[ast.stmt], prefix: str) -> None:  # a module or class body
        for node in body:
            if isinstance(node, FUNCTIONS):
                block(node.body, f"{prefix}{node.name}")
            elif isinstance(node, ast.ClassDef):
                scope(node.body, f"{prefix}{node.name}.")

    def block(body: list[ast.stmt], name: str) -> None:
        for stmt in body:
            if not isinstance(stmt, SILENT) and not _is_constant(stmt):
                found.append(Statement(rel, name, stmt.lineno, range(_first_line(stmt), _header_end(stmt) + 1),
                                       lines[stmt.lineno - 1].strip()))
            if isinstance(stmt, FUNCTIONS):
                block(stmt.body, f"{name}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                scope(stmt.body, f"{name}.{stmt.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    block(getattr(stmt, field, []), name)
                for handler in getattr(stmt, "handlers", []):
                    block(handler.body, name)
                for case in getattr(stmt, "cases", []):
                    block(case.body, name)

    scope(ast.parse("\n".join(lines), filename=str(path)).body, "")
    return found


def _line_recorder(lines: set[int]):
    """A local trace function that adds each line event's line to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def run_suite(files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Runs pytest over all of tests/ in this process with the hook on;
    returns its exit code and the lines that produced a line event, per file
    relative to src/."""
    import pytest

    ran = {str(path.relative_to(SRC)): set() for path in files}
    tracers = {str(path): _line_recorder(ran[str(path.relative_to(SRC))]) for path in files}

    def hook(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    class Reinstall:
        """Registers the hypothesis profile the run names, then puts the hook
        back before each test's set-up and call."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_configure(self, config):
            import hypothesis  # here, not before pytest starts: it must not import a plugin first

            hypothesis.settings.register_profile("probe", deadline=None, derandomize=True, database=None)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(hook)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(hook)

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-profile=probe", str(ROOT / "tests")],
            plugins=[Reinstall()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    files = sorted(SRC.rglob("*.py"))
    statements = [stmt for path in files for stmt in function_statements(path)]
    code, ran = run_suite(files)
    never = [stmt for stmt in statements if ran[stmt.file].isdisjoint(stmt.lines)]

    print(f"\n{len(statements)} function-body statements under src/, {len(never)} never ran")
    for stmt in never:
        print(f"  NEVER RAN: src/{stmt.file}:{stmt.line}: {stmt.function}: {stmt.text}")
    if code != 0:
        print(f"the suite exited {code}; statements a failed test never reached may show above")
    return 1 if never or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
