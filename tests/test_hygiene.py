"""Static checks on the library sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridnull"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; __all__ entries count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_import_only_what_they_use():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Union, Sequence\n"
        "__all__ = ['osp']\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Union (line 3)"]
