"""Static checks over the package and script sources."""

from __future__ import annotations

import ast
from pathlib import Path

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
